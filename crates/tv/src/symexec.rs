//! Guarded symbolic execution of mini-C into SMT terms.
//!
//! The executor turns a kernel into the final contents of its array
//! parameters, by position, as vectors of symbolic 32-bit terms (one per
//! cell), given:
//!
//! * concrete values for the scalar parameters that control trip counts
//!   (the loop bound `n` is fixed to a multiple of the vectorization width,
//!   which realizes the paper's `(end1 - start1) % m == 0` assumption), and
//! * fully symbolic initial contents for every array parameter, each in its
//!   own region (the paper's non-aliasing modelling from Section 3.1).
//!
//! Inputs bind by parameter position. [`sym_exec_bound`] names a
//! function's input cells, its unbound scalar inputs and its
//! out-of-window cells after the parameter at the same position of another
//! function (the scalar kernel), so the scalar and a candidate that spells
//! or orders its parameters differently still read the same input terms
//! position for position, as a C call passes them.
//!
//! Control flow is handled the way an SSA form joins it. An `if` whose
//! condition folds runs only the branch taken. Otherwise both branches run
//! from the state before the `if`: the executor records the cells and
//! variables each branch writes, rewinds them after the branch, and at the
//! join merges each changed one as `ite(taken, then, else)`, one phi per
//! cell and `if`. The scalar kernel's `if` and the candidate's blend of a
//! comparison mask therefore build the same `ite`. Undefined behaviour,
//! the suppression guards that model forward `goto`s and `return` (lifted
//! at their label), and the pending `goto` guards are threaded through both
//! branches in sequence, each under its branch's path condition. Loops are
//! unrolled on the fly as long as their condition folds to a constant,
//! which it does because induction variables and bounds are concrete.
//!
//! Names are resolved once. An array is an index into the executor's array
//! table (its parameter position), so a pointer value and a written cell
//! carry no name; variables and pending `goto` labels are flat lists keyed
//! by names borrowed from the AST; and the names of the input cells are
//! written into one reused buffer before they are interned.

use lv_cir::ast::{AssignOp, BinOp, Block, Expr, Function, Param, Stmt, Type, UnOp};
use lv_simd::LANES;
use lv_smt::{Context, TermId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt::{self, Write as _};

/// Why symbolic execution could not produce a verification condition.
///
/// These map to the paper's *Inconclusive* causes other than solver timeouts:
/// unmodeled intrinsics, unsupported code shapes, and blow-ups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymExecError {
    /// Human-readable reason.
    pub reason: String,
}

impl SymExecError {
    fn new(reason: impl Into<String>) -> SymExecError {
        SymExecError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SymExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "symbolic execution failed: {}", self.reason)
    }
}

impl Error for SymExecError {}

/// Configuration for one symbolic run.
#[derive(Debug, Clone)]
pub struct SymExecConfig {
    /// Concrete values for scalar parameters (typically just the bound `n`).
    pub scalar_bindings: HashMap<String, i32>,
    /// Number of cells modelled per array.
    pub array_len: usize,
    /// Maximum number of dynamically unrolled loop iterations (across all
    /// loops) before giving up.
    pub max_iterations: usize,
    /// Prefix prepended to the symbolic array cell variable names, so the
    /// source and target runs share input variables ("" for both).
    pub input_prefix: String,
}

impl Default for SymExecConfig {
    fn default() -> Self {
        SymExecConfig {
            scalar_bindings: HashMap::new(),
            array_len: 2 * LANES + 4,
            max_iterations: 4096,
            input_prefix: String::new(),
        }
    }
}

/// The result of symbolically executing one function.
#[derive(Debug, Clone)]
pub struct SymOutcome {
    /// Final symbolic contents of every array parameter, by position among
    /// the array parameters: `arrays[k]` is the `k`-th `int *` parameter.
    pub arrays: Vec<Vec<TermId>>,
    /// A boolean term that is true exactly when the execution triggered
    /// undefined behaviour (out-of-bounds access, division by zero).
    pub ub: TermId,
    /// Number of loop iterations that were unrolled.
    pub unrolled_iterations: usize,
}

/// Symbolically executes `func` and returns the final array state.
///
/// The *initial* contents of array `a` are the shared symbolic variables
/// `{prefix}a!0 .. {prefix}a!len-1`. Scalar parameters not bound in the
/// config become fresh symbolic variables (they do not control loops in the
/// TSVC subset). This is [`sym_exec_bound`] with `func` naming its own
/// inputs.
///
/// # Errors
///
/// Returns [`SymExecError`] for loops whose conditions do not fold to
/// constants, backward `goto`s, unsupported intrinsics, and iteration blow-ups.
pub fn sym_exec(
    ctx: &mut Context,
    func: &Function,
    config: &SymExecConfig,
) -> Result<SymOutcome, SymExecError> {
    sym_exec_bound(ctx, func, func, config)
}

/// Symbolically executes `func` on the inputs of `inputs`: parameter `i`
/// of `func` reads the input named after parameter `i` of `inputs`. Its
/// array cells are `{prefix}{name}!0 ..`, an unbound scalar is
/// `{prefix}{name}`, a scalar binding is looked up under that name, and an
/// out-of-window cell is `oob!{name}!{index}`. Executing the scalar kernel
/// with [`sym_exec`] and a candidate bound to it with the same context and
/// prefix therefore compares them on the same inputs by position.
///
/// # Errors
///
/// Everything [`sym_exec`] rejects, and a `func` whose parameter count or
/// any parameter's type differs from `inputs`'.
pub fn sym_exec_bound(
    ctx: &mut Context,
    func: &Function,
    inputs: &Function,
    config: &SymExecConfig,
) -> Result<SymOutcome, SymExecError> {
    if func.params.len() != inputs.params.len() {
        return Err(SymExecError::new(format!(
            "`{}` takes {} parameters but is bound to the {} inputs of `{}`",
            func.name,
            func.params.len(),
            inputs.params.len(),
            inputs.name
        )));
    }
    let mismatch = (1..)
        .zip(func.params.iter().zip(&inputs.params))
        .find(|(_, (p, input))| p.ty != input.ty);
    if let Some((position, (p, input))) = mismatch {
        return Err(SymExecError::new(format!(
            "parameter {} `{}` has type {} but input {} `{}` has type {}",
            position, p.name, p.ty, position, input.name, input.ty
        )));
    }
    let mut exec = SymExec::new(ctx, func, &inputs.params, config)?;
    exec.run(func)?;
    Ok(exec.finish())
}

/// A symbolic value: a 32-bit term, an 8-lane vector of terms, or a pointer
/// into the array with index `array` in [`SymExec::arrays`].
#[derive(Clone, Copy, PartialEq)]
enum SymValue {
    Scalar(TermId),
    Vector([TermId; LANES]),
    Ptr { array: usize, offset: i64 },
}

/// A location an `if` branch can write: a variable, or one array cell.
#[derive(Clone, Copy, PartialEq)]
enum Loc<'f> {
    Var(&'f str),
    Cell(usize, usize),
}

/// A location or value shown with each array index replaced by the array's
/// name, the way error texts render them.
struct Named<'n, T>(&'n [&'n str], T);

impl fmt::Debug for Named<'_, Loc<'_>> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            Loc::Var(name) => f.debug_tuple("Var").field(&name).finish(),
            Loc::Cell(array, index) => f
                .debug_tuple("Cell")
                .field(&self.0[array])
                .field(&index)
                .finish(),
        }
    }
}

impl fmt::Debug for Named<'_, SymValue> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            SymValue::Scalar(term) => f.debug_tuple("Scalar").field(&term).finish(),
            SymValue::Vector(lanes) => f.debug_tuple("Vector").field(&lanes).finish(),
            SymValue::Ptr { array, offset } => f
                .debug_struct("Ptr")
                .field("array", &self.0[array])
                .field("offset", &offset)
                .finish(),
        }
    }
}

impl fmt::Debug for Named<'_, Option<SymValue>> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            None => f.write_str("None"),
            Some(value) => f.debug_tuple("Some").field(&Named(self.0, value)).finish(),
        }
    }
}

struct SymExec<'a, 'f> {
    ctx: &'a mut Context,
    config: &'a SymExecConfig,
    /// Every variable (parameters included) with its current value.
    vars: Vec<(&'f str, SymValue)>,
    /// The cells of every array parameter, by parameter position among the
    /// arrays.
    arrays: Vec<Vec<TermId>>,
    /// The name of each array in [`SymExec::arrays`], as error texts show it.
    array_names: Vec<&'f str>,
    /// The name of each array's input: the bound parameter's, which labels
    /// its out-of-window cells.
    input_names: Vec<&'f str>,
    /// Path suppression due to taken forward gotos / returns.
    suppress: TermId,
    /// Pending goto guards per label.
    pending: Vec<(&'f str, TermId)>,
    ub: TermId,
    iterations: usize,
    /// The value each location had before its write, in write order, for
    /// every write inside an open `if` branch. `None` is a variable that
    /// did not exist yet.
    undo: Vec<(Loc<'f>, Option<SymValue>)>,
    /// How many `if` branches are open.
    branch_depth: usize,
    /// The name of the input variable being interned.
    name_buf: String,
}

impl<'a, 'f> SymExec<'a, 'f> {
    /// An executor of `func` whose parameter `i` reads the input of
    /// `inputs[i]` (same length as `func.params`).
    fn new(
        ctx: &'a mut Context,
        func: &'f Function,
        inputs: &'f [Param],
        config: &'a SymExecConfig,
    ) -> Result<Self, SymExecError> {
        let mut vars: Vec<(&'f str, SymValue)> = Vec::new();
        let mut arrays = Vec::new();
        let mut array_names = Vec::new();
        let mut input_names = Vec::new();
        let mut name_buf = String::new();
        for (param, input) in func.params.iter().zip(inputs) {
            let value = match &param.ty {
                Type::Int => {
                    let term = match config.scalar_bindings.get(&input.name) {
                        Some(&v) => ctx.bv32(v),
                        None => {
                            name_buf.clear();
                            name_buf.push_str(&config.input_prefix);
                            name_buf.push_str(&input.name);
                            ctx.bv_var(&name_buf, 32)
                        }
                    };
                    SymValue::Scalar(term)
                }
                Type::Ptr(_) => {
                    let mut cells = Vec::with_capacity(config.array_len);
                    for i in 0..config.array_len {
                        name_buf.clear();
                        let _ = write!(name_buf, "{}{}!{}", config.input_prefix, input.name, i);
                        cells.push(ctx.bv_var(&name_buf, 32));
                    }
                    arrays.push(cells);
                    array_names.push(param.name.as_str());
                    input_names.push(input.name.as_str());
                    SymValue::Ptr {
                        array: arrays.len() - 1,
                        offset: 0,
                    }
                }
                other => {
                    return Err(SymExecError::new(format!(
                        "unsupported parameter type {} for `{}`",
                        other, param.name
                    )))
                }
            };
            // A repeated parameter name rebinds the name.
            match vars.iter_mut().find(|(name, _)| *name == param.name) {
                Some(slot) => slot.1 = value,
                None => vars.push((&param.name, value)),
            }
        }
        let false_t = ctx.bool_const(false);
        Ok(SymExec {
            ctx,
            config,
            vars,
            arrays,
            array_names,
            input_names,
            suppress: false_t,
            pending: Vec::new(),
            ub: false_t,
            iterations: 0,
            undo: Vec::new(),
            branch_depth: 0,
            name_buf,
        })
    }

    fn run(&mut self, func: &'f Function) -> Result<(), SymExecError> {
        let guard = self.ctx.bool_const(true);
        self.exec_block(&func.body, guard)
    }

    fn finish(self) -> SymOutcome {
        SymOutcome {
            arrays: self.arrays,
            ub: self.ub,
            unrolled_iterations: self.iterations,
        }
    }

    /// The current value of a variable.
    fn var(&self, name: &str) -> Option<SymValue> {
        self.vars
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, value)| value)
    }

    /// An out-of-window cell of `array`: a fresh unconstrained symbol.
    fn oob_cell(&mut self, array: usize, index: i64) -> TermId {
        self.name_buf.clear();
        let _ = write!(self.name_buf, "oob!{}!{}", self.input_names[array], index);
        self.ctx.bv_var(&self.name_buf, 32)
    }

    fn active(&mut self, guard: TermId) -> TermId {
        let not_sup = self.ctx.not(self.suppress);
        self.ctx.and(guard, not_sup)
    }

    fn record_ub(&mut self, guard: TermId) {
        self.ub = self.ctx.or(self.ub, guard);
    }

    // ---- locations and the `if` merge ---------------------------------------

    fn get(&self, loc: Loc) -> Option<SymValue> {
        match loc {
            Loc::Var(name) => self.var(name),
            Loc::Cell(array, index) => Some(SymValue::Scalar(self.arrays[array][index])),
        }
    }

    /// Stores `value` at `loc`, recording the old value while a branch is
    /// open.
    fn put(&mut self, loc: Loc<'f>, value: Option<SymValue>) {
        match (loc, value) {
            (Loc::Var(name), value) => self.set_var(name, value),
            (Loc::Cell(array, index), Some(SymValue::Scalar(term))) => {
                self.set_cell(array, index, term)
            }
            (Loc::Cell(..), _) => unreachable!("array cells hold scalar terms"),
        }
    }

    /// [`SymExec::put`] for a variable (`None` removes it).
    fn set_var(&mut self, name: &'f str, value: Option<SymValue>) {
        let slot = self.vars.iter().position(|(n, _)| *n == name);
        let old = match (slot, value) {
            (Some(i), Some(value)) => Some(std::mem::replace(&mut self.vars[i].1, value)),
            (None, Some(value)) => {
                self.vars.push((name, value));
                None
            }
            (Some(i), None) => Some(self.vars.swap_remove(i).1),
            (None, None) => None,
        };
        if self.branch_depth > 0 {
            self.undo.push((Loc::Var(name), old));
        }
    }

    /// [`SymExec::put`] for an array cell.
    fn set_cell(&mut self, array: usize, index: usize, term: TermId) {
        let old = std::mem::replace(&mut self.arrays[array][index], term);
        if self.branch_depth > 0 {
            let loc = Loc::Cell(array, index);
            self.undo.push((loc, Some(SymValue::Scalar(old))));
        }
    }

    /// Rewinds every write since `mark` and returns each written location
    /// once, with the value it had before the rewind.
    fn rewind(&mut self, mark: usize) -> Vec<(Loc<'f>, Option<SymValue>)> {
        let mut written: Vec<(Loc, Option<SymValue>)> = Vec::new();
        for &(loc, _) in &self.undo[mark..] {
            if !written.iter().any(|&(seen, _)| seen == loc) {
                written.push((loc, self.get(loc)));
            }
        }
        let depth = std::mem::replace(&mut self.branch_depth, 0);
        while self.undo.len() > mark {
            let (loc, old) = self.undo.pop().expect("undo entry above the mark");
            self.put(loc, old);
        }
        self.branch_depth = depth;
        written
    }

    /// The value of a location written by one branch of an `if` at the
    /// join: `ite(taken, then, else)`, lane-wise for vectors. A variable
    /// that one branch declared goes out of scope (`None`).
    fn merge(
        &mut self,
        loc: Loc,
        taken: TermId,
        then_v: Option<SymValue>,
        else_v: Option<SymValue>,
    ) -> Result<Option<SymValue>, SymExecError> {
        Ok(match (then_v, else_v) {
            (None, _) | (_, None) => None,
            (Some(SymValue::Scalar(t)), Some(SymValue::Scalar(e))) => {
                Some(SymValue::Scalar(self.ctx.ite(taken, t, e)))
            }
            (Some(SymValue::Vector(t)), Some(SymValue::Vector(e))) => {
                let mut lanes = t;
                for (lane, (&t, &e)) in lanes.iter_mut().zip(t.iter().zip(e.iter())) {
                    *lane = self.ctx.ite(taken, t, e);
                }
                Some(SymValue::Vector(lanes))
            }
            (Some(t @ SymValue::Ptr { .. }), Some(e)) if t == e => Some(t),
            (Some(t), Some(e)) => {
                let names = &self.array_names[..];
                let (loc, t, e) = (Named(names, loc), Named(names, t), Named(names, e));
                let reason = format!("{loc:?} differs across the branches of an `if`");
                return Err(SymExecError::new(format!("{reason}: {t:?} vs {e:?}")));
            }
        })
    }

    /// Runs an `if` whose condition does not fold: each branch from the
    /// state before it, then one merge per changed location.
    fn exec_if(
        &mut self,
        taken: TermId,
        then_branch: &'f Block,
        else_branch: Option<&'f Block>,
        guard: TermId,
    ) -> Result<(), SymExecError> {
        let not_taken = self.ctx.not(taken);
        let then_guard = self.ctx.and(guard, taken);
        let else_guard = self.ctx.and(guard, not_taken);
        let mark = self.undo.len();
        self.branch_depth += 1;
        self.exec_block(then_branch, then_guard)?;
        let then_written = self.rewind(mark);
        if let Some(else_branch) = else_branch {
            self.exec_block(else_branch, else_guard)?;
        }
        let else_written = self.rewind(mark);
        self.branch_depth -= 1;
        let value_in = |written: &[(Loc, Option<SymValue>)], loc: Loc| {
            written
                .iter()
                .find(|&&(seen, _)| seen == loc)
                .map(|&(_, value)| value)
        };
        let mut locs: Vec<Loc> = then_written.iter().map(|&(loc, _)| loc).collect();
        for &(loc, _) in &else_written {
            if !locs.contains(&loc) {
                locs.push(loc);
            }
        }
        for loc in locs {
            let before = self.get(loc);
            let then_v = value_in(&then_written, loc).unwrap_or(before);
            let else_v = value_in(&else_written, loc).unwrap_or(before);
            let merged = self.merge(loc, taken, then_v, else_v)?;
            self.put(loc, merged);
        }
        Ok(())
    }

    // ---- statements -----------------------------------------------------------

    fn exec_block(&mut self, block: &'f Block, guard: TermId) -> Result<(), SymExecError> {
        for (idx, stmt) in block.stmts.iter().enumerate() {
            if let Stmt::Goto(label) = stmt {
                // Backward gotos (label earlier in this block) cannot be
                // expressed with suppression guards.
                let is_backward = block.stmts[..idx]
                    .iter()
                    .any(|s| matches!(s, Stmt::Label(l) if l == label));
                if is_backward {
                    return Err(SymExecError::new(format!(
                        "backward goto to label `{}` is not supported",
                        label
                    )));
                }
            }
            self.exec_stmt(stmt, guard)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &'f Stmt, guard: TermId) -> Result<(), SymExecError> {
        match stmt {
            Stmt::Decl { ty, name, init } => {
                let value = match (init, ty) {
                    (Some(init), _) => self.eval(init, guard)?,
                    (None, Type::Int) => SymValue::Scalar(self.ctx.bv32(0)),
                    (None, Type::M256i) => SymValue::Vector([self.ctx.bv32(0); LANES]),
                    (None, other) => {
                        return Err(SymExecError::new(format!(
                            "cannot default-initialize `{}` of type {}",
                            name, other
                        )))
                    }
                };
                // A declaration binds unconditionally; one inside an `if`
                // branch goes out of scope at the join.
                self.set_var(name, Some(value));
                Ok(())
            }
            Stmt::Expr(e) => {
                self.eval(e, guard)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval_scalar(cond, guard)?;
                let zero = self.ctx.bv32(0);
                let taken = self.ctx.ne(c, zero);
                match (self.ctx.as_bool_const(taken), else_branch) {
                    (Some(true), _) => self.exec_block(then_branch, guard),
                    (Some(false), Some(else_branch)) => self.exec_block(else_branch, guard),
                    (Some(false), None) => Ok(()),
                    (None, _) => self.exec_if(taken, then_branch, else_branch.as_ref(), guard),
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.exec_stmt(init, guard)?;
                }
                loop {
                    if let Some(cond) = cond {
                        let c = self.eval_scalar(cond, guard)?;
                        match self.ctx.as_bv_const(c) {
                            Some(0) => break,
                            Some(_) => {}
                            None => {
                                // The condition may also be a folded boolean
                                // (comparisons return 0/1 via ite), so try to
                                // interpret it as such.
                                return Err(SymExecError::new(
                                    "loop condition does not fold to a constant; the loop cannot be unrolled",
                                ));
                            }
                        }
                    }
                    self.iterations += 1;
                    if self.iterations > self.config.max_iterations {
                        return Err(SymExecError::new(format!(
                            "exceeded the unrolling budget of {} iterations",
                            self.config.max_iterations
                        )));
                    }
                    self.exec_block(body, guard)?;
                    if let Some(step) = step {
                        self.eval(step, guard)?;
                    }
                    if cond.is_none() {
                        return Err(SymExecError::new("infinite for-loop without a condition"));
                    }
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                loop {
                    let c = self.eval_scalar(cond, guard)?;
                    match self.ctx.as_bv_const(c) {
                        Some(0) => break,
                        Some(_) => {}
                        None => {
                            return Err(SymExecError::new(
                                "while condition does not fold to a constant",
                            ))
                        }
                    }
                    self.iterations += 1;
                    if self.iterations > self.config.max_iterations {
                        return Err(SymExecError::new(format!(
                            "exceeded the unrolling budget of {} iterations",
                            self.config.max_iterations
                        )));
                    }
                    self.exec_block(body, guard)?;
                }
                Ok(())
            }
            Stmt::Return(_) => {
                let active = self.active(guard);
                self.suppress = self.ctx.or(self.suppress, active);
                Ok(())
            }
            Stmt::Goto(label) => {
                let active = self.active(guard);
                let slot = self.pending.iter().position(|(l, _)| l == label);
                let entry = match slot {
                    Some(i) => self.pending[i].1,
                    None => self.ctx.bool_const(false),
                };
                let merged = self.ctx.or(entry, active);
                match slot {
                    Some(i) => self.pending[i].1 = merged,
                    None => self.pending.push((label, merged)),
                }
                self.suppress = self.ctx.or(self.suppress, active);
                Ok(())
            }
            Stmt::Label(label) => {
                if let Some(i) = self.pending.iter().position(|(l, _)| l == label) {
                    let (_, arrivals) = self.pending.swap_remove(i);
                    let not_arrivals = self.ctx.not(arrivals);
                    self.suppress = self.ctx.and(self.suppress, not_arrivals);
                }
                Ok(())
            }
            Stmt::Break | Stmt::Continue => Err(SymExecError::new(
                "break/continue inside symbolically executed code are not supported; \
                 the C-level unroller rewrites break into return first",
            )),
            Stmt::Block(b) => self.exec_block(b, guard),
            Stmt::Empty => Ok(()),
        }
    }

    // ---- expressions -------------------------------------------------------------

    fn eval_scalar(&mut self, expr: &'f Expr, guard: TermId) -> Result<TermId, SymExecError> {
        match self.eval(expr, guard)? {
            // Guard the sort at the user-input boundary: every scalar the
            // executor hands to a bitvector constructor must be a bitvector.
            // All current producers coerce comparisons to 0/1 words, but a
            // future encoding that leaks a Bool term here must surface as a
            // typed `Inconclusive`, not as `Sort::width`'s panic.
            SymValue::Scalar(t) if self.ctx.sort(t).is_bool() => Err(SymExecError::new(
                "expression has boolean sort where a 32-bit value is required",
            )),
            SymValue::Scalar(t) => Ok(t),
            SymValue::Vector(_) => Err(SymExecError::new("expected a scalar, found a vector")),
            SymValue::Ptr { .. } => Err(SymExecError::new("expected a scalar, found a pointer")),
        }
    }

    fn eval_vector(
        &mut self,
        expr: &'f Expr,
        guard: TermId,
    ) -> Result<[TermId; LANES], SymExecError> {
        match self.eval(expr, guard)? {
            SymValue::Vector(v) => Ok(v),
            _ => Err(SymExecError::new("expected a __m256i value")),
        }
    }

    /// A pointer as `(array index, offset)`.
    fn eval_ptr(&mut self, expr: &'f Expr, guard: TermId) -> Result<(usize, i64), SymExecError> {
        match self.eval(expr, guard)? {
            SymValue::Ptr { array, offset } => Ok((array, offset)),
            _ => Err(SymExecError::new("expected a pointer value")),
        }
    }

    fn concrete_index(&self, term: TermId) -> Result<i64, SymExecError> {
        match self.ctx.as_bv_const(term) {
            Some(v) => Ok(lv_smt::sign_extend(v, 32)),
            None => Err(SymExecError::new(
                "array subscript does not fold to a constant after unrolling",
            )),
        }
    }

    fn check_bounds(&mut self, array: usize, index: i64, lanes: i64, guard: TermId) -> bool {
        let len = self.arrays[array].len() as i64;
        if index < 0 || index + lanes > len {
            self.record_ub(guard);
            return false;
        }
        true
    }

    fn read_cell(
        &mut self,
        array: usize,
        index: i64,
        guard: TermId,
    ) -> Result<TermId, SymExecError> {
        let active = self.active(guard);
        if !self.check_bounds(array, index, 1, active) {
            // Out of the modelled window: the value is an unconstrained fresh
            // symbol (the UB flag already records the violation).
            return Ok(self.oob_cell(array, index));
        }
        Ok(self.arrays[array][index as usize])
    }

    /// Stores `value` on every path not suppressed by a `goto` or `return`
    /// on which `lane` (a masked store's lane enable, else `true`) holds.
    /// The path condition `guard` only decides undefined behaviour: the
    /// merge at the end of each `if` selects among the branches' stores.
    fn write_cell(
        &mut self,
        array: usize,
        index: i64,
        value: TermId,
        guard: TermId,
        lane: TermId,
    ) -> Result<(), SymExecError> {
        let not_suppressed = self.ctx.not(self.suppress);
        let live = self.ctx.and(lane, not_suppressed);
        let active = self.ctx.and(guard, live);
        if !self.check_bounds(array, index, 1, active) {
            return Ok(());
        }
        let old = self.arrays[array][index as usize];
        let merged = self.ctx.ite(live, value, old);
        self.set_cell(array, index as usize, merged);
        Ok(())
    }

    /// Assigns a variable on every path not suppressed by a `goto` or
    /// `return` (see [`SymExec::write_cell`]).
    fn assign_scalar(&mut self, name: &'f str, value: SymValue) -> Result<(), SymExecError> {
        let live = self.ctx.not(self.suppress);
        match (self.var(name), value) {
            (Some(SymValue::Scalar(old)), SymValue::Scalar(new)) => {
                let merged = self.ctx.ite(live, new, old);
                self.set_var(name, Some(SymValue::Scalar(merged)));
                Ok(())
            }
            (Some(SymValue::Vector(old)), SymValue::Vector(new)) => {
                let mut merged = old;
                for i in 0..LANES {
                    merged[i] = self.ctx.ite(live, new[i], old[i]);
                }
                self.set_var(name, Some(SymValue::Vector(merged)));
                Ok(())
            }
            (Some(SymValue::Ptr { .. }), new @ SymValue::Ptr { .. }) | (None, new) => {
                self.set_var(name, Some(new));
                Ok(())
            }
            (old, new) => Err(SymExecError::new(format!(
                "assignment to `{}` changes its kind ({:?} -> {:?})",
                name,
                Named(&self.array_names, old),
                Named(&self.array_names, new)
            ))),
        }
    }

    fn eval(&mut self, expr: &'f Expr, guard: TermId) -> Result<SymValue, SymExecError> {
        match expr {
            Expr::IntLit(v) => Ok(SymValue::Scalar(self.ctx.bv32(*v as i32))),
            Expr::Var(name) => self
                .var(name)
                .ok_or_else(|| SymExecError::new(format!("unbound variable `{}`", name))),
            Expr::Index { base, index } => {
                let (array, offset) = self.eval_ptr(base, guard)?;
                let idx_term = self.eval_scalar(index, guard)?;
                let idx = self.concrete_index(idx_term)? + offset;
                Ok(SymValue::Scalar(self.read_cell(array, idx, guard)?))
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_scalar(expr, guard)?;
                let out = match op {
                    UnOp::Neg => self.ctx.bv_neg(v),
                    UnOp::BitNot => self.ctx.bv_not(v),
                    UnOp::Not => {
                        let zero = self.ctx.bv32(0);
                        let one = self.ctx.bv32(1);
                        let is_zero = self.ctx.eq(v, zero);
                        self.ctx.ite(is_zero, one, zero)
                    }
                };
                Ok(SymValue::Scalar(out))
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, guard),
            Expr::Assign { op, target, value } => self.eval_assign(*op, target, value, guard),
            Expr::Call { callee, args } => self.eval_call(callee, args, guard),
            Expr::Cast { expr, .. } => self.eval(expr, guard),
            Expr::AddrOf(inner) => match inner.as_ref() {
                Expr::Index { base, index } => {
                    let (array, offset) = self.eval_ptr(base, guard)?;
                    let idx_term = self.eval_scalar(index, guard)?;
                    let idx = self.concrete_index(idx_term)? + offset;
                    Ok(SymValue::Ptr { array, offset: idx })
                }
                Expr::Var(_) => self.eval(inner, guard),
                other => Err(SymExecError::new(format!(
                    "unsupported address-of operand {:?}",
                    other
                ))),
            },
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.eval_scalar(cond, guard)?;
                let zero = self.ctx.bv32(0);
                let taken = self.ctx.ne(c, zero);
                let t = self.eval_scalar(then_expr, guard)?;
                let e = self.eval_scalar(else_expr, guard)?;
                Ok(SymValue::Scalar(self.ctx.ite(taken, t, e)))
            }
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        lhs: &'f Expr,
        rhs: &'f Expr,
        guard: TermId,
    ) -> Result<SymValue, SymExecError> {
        // Pointer arithmetic keeps the offset concrete.
        let lhs_v = self.eval(lhs, guard)?;
        if let SymValue::Ptr { array, offset } = lhs_v {
            let rhs_t = self.eval_scalar(rhs, guard)?;
            let delta = self.concrete_index(rhs_t)?;
            let new_offset = match op {
                BinOp::Add => offset + delta,
                BinOp::Sub => offset - delta,
                _ => return Err(SymExecError::new("unsupported pointer arithmetic operator")),
            };
            return Ok(SymValue::Ptr {
                array,
                offset: new_offset,
            });
        }
        let l = match lhs_v {
            SymValue::Scalar(t) => t,
            _ => return Err(SymExecError::new("expected scalar operands")),
        };
        let zero = self.ctx.bv32(0);
        let one = self.ctx.bv32(1);
        // Short-circuit operators: evaluate both sides (they are pure in this
        // subset) and combine logically.
        let r = match self.eval(rhs, guard)? {
            SymValue::Scalar(t) => t,
            SymValue::Ptr { array, offset } if op == BinOp::Add => {
                let delta = self.concrete_index(l)?;
                return Ok(SymValue::Ptr {
                    array,
                    offset: offset + delta,
                });
            }
            _ => return Err(SymExecError::new("expected scalar operands")),
        };
        // Same boundary guard as `eval_scalar`: ill-sorted operands must
        // become a typed inconclusive verdict, never a `Sort::width` panic.
        if self.ctx.sort(l).is_bool() || self.ctx.sort(r).is_bool() {
            return Err(SymExecError::new(
                "operand has boolean sort where a 32-bit value is required",
            ));
        }
        let bool_to_int = |ctx: &mut Context, b: TermId| ctx.ite(b, one, zero);
        let out = match op {
            BinOp::Add => self.ctx.bv_add(l, r),
            BinOp::Sub => self.ctx.bv_sub(l, r),
            BinOp::Mul => self.ctx.bv_mul(l, r),
            BinOp::Div => {
                self.record_division_ub(l, r, guard);
                self.ctx.bv_sdiv(l, r)
            }
            BinOp::Rem => {
                self.record_division_ub(l, r, guard);
                self.ctx.bv_srem(l, r)
            }
            BinOp::Lt => {
                let b = self.ctx.bv_slt(l, r);
                bool_to_int(self.ctx, b)
            }
            BinOp::Le => {
                let b = self.ctx.bv_sle(l, r);
                bool_to_int(self.ctx, b)
            }
            BinOp::Gt => {
                let b = self.ctx.bv_sgt(l, r);
                bool_to_int(self.ctx, b)
            }
            BinOp::Ge => {
                let b = self.ctx.bv_sge(l, r);
                bool_to_int(self.ctx, b)
            }
            BinOp::Eq => {
                let b = self.ctx.eq(l, r);
                bool_to_int(self.ctx, b)
            }
            BinOp::Ne => {
                let b = self.ctx.ne(l, r);
                bool_to_int(self.ctx, b)
            }
            BinOp::And => {
                let ln = self.ctx.ne(l, zero);
                let rn = self.ctx.ne(r, zero);
                let b = self.ctx.and(ln, rn);
                bool_to_int(self.ctx, b)
            }
            BinOp::Or => {
                let ln = self.ctx.ne(l, zero);
                let rn = self.ctx.ne(r, zero);
                let b = self.ctx.or(ln, rn);
                bool_to_int(self.ctx, b)
            }
            BinOp::BitAnd => self.ctx.bv_and(l, r),
            BinOp::BitOr => self.ctx.bv_or(l, r),
            BinOp::BitXor => self.ctx.bv_xor(l, r),
            BinOp::Shl => {
                self.record_shift_ub(r, guard);
                self.ctx.bv_shl(l, r)
            }
            BinOp::Shr => {
                self.record_shift_ub(r, guard);
                self.ctx.bv_ashr(l, r)
            }
        };
        Ok(SymValue::Scalar(out))
    }

    /// Records the undefined behaviour of `l / r` and `l % r` on the active
    /// path, as `lv_interp` stops on it: a zero divisor, and `INT_MIN / -1`.
    fn record_division_ub(&mut self, l: TermId, r: TermId, guard: TermId) {
        let zero = self.ctx.bv32(0);
        let is_zero = self.ctx.eq(r, zero);
        let int_min = self.ctx.bv32(i32::MIN);
        let minus_one = self.ctx.bv32(-1);
        let l_min = self.ctx.eq(l, int_min);
        let r_minus_one = self.ctx.eq(r, minus_one);
        let overflow = self.ctx.and(l_min, r_minus_one);
        let undefined = self.ctx.or(is_zero, overflow);
        let active = self.active(guard);
        let ub = self.ctx.and(active, undefined);
        self.record_ub(ub);
    }

    /// Records the undefined behaviour of a scalar shift by `r` on the
    /// active path, as `lv_interp` stops on it: a count outside 0–31, that
    /// is `r >u 31`.
    fn record_shift_ub(&mut self, r: TermId, guard: TermId) {
        let max_count = self.ctx.bv32(31);
        let out_of_range = self.ctx.bv_ult(max_count, r);
        let active = self.active(guard);
        let ub = self.ctx.and(active, out_of_range);
        self.record_ub(ub);
    }

    fn eval_assign(
        &mut self,
        op: AssignOp,
        target: &'f Expr,
        value: &'f Expr,
        guard: TermId,
    ) -> Result<SymValue, SymExecError> {
        let new_value = match op.binop() {
            None => self.eval(value, guard)?,
            Some(binop) => self.eval_binary(binop, target, value, guard)?,
        };
        match target {
            Expr::Var(name) => {
                self.assign_scalar(name, new_value)?;
                Ok(new_value)
            }
            Expr::Index { base, index } => {
                let (array, offset) = self.eval_ptr(base, guard)?;
                let idx_term = self.eval_scalar(index, guard)?;
                let idx = self.concrete_index(idx_term)? + offset;
                let scalar = match &new_value {
                    SymValue::Scalar(t) => *t,
                    _ => return Err(SymExecError::new("can only store scalars into arrays")),
                };
                let all_lanes = self.ctx.bool_const(true);
                self.write_cell(array, idx, scalar, guard, all_lanes)?;
                Ok(new_value)
            }
            other => Err(SymExecError::new(format!(
                "invalid assignment target {:?}",
                other
            ))),
        }
    }

    fn eval_call(
        &mut self,
        callee: &str,
        args: &'f [Expr],
        guard: TermId,
    ) -> Result<SymValue, SymExecError> {
        match callee {
            "_mm256_loadu_si256" | "_mm256_maskload_epi32" => {
                let (array, base) = self.eval_ptr(&args[0], guard)?;
                let mask = if callee == "_mm256_maskload_epi32" {
                    Some(self.eval_vector(&args[1], guard)?)
                } else {
                    None
                };
                let mut lanes = [self.ctx.bv32(0); LANES];
                for (i, lane) in lanes.iter_mut().enumerate() {
                    let loaded = self.read_cell(array, base + i as i64, guard)?;
                    *lane = match &mask {
                        None => loaded,
                        Some(mask) => {
                            let zero = self.ctx.bv32(0);
                            let neg = self.ctx.bv_slt(mask[i], zero);
                            self.ctx.ite(neg, loaded, zero)
                        }
                    };
                }
                Ok(SymValue::Vector(lanes))
            }
            "_mm256_storeu_si256" | "_mm256_maskstore_epi32" => {
                let (array, base) = self.eval_ptr(&args[0], guard)?;
                let (mask, value) = if callee == "_mm256_maskstore_epi32" {
                    (
                        Some(self.eval_vector(&args[1], guard)?),
                        self.eval_vector(&args[2], guard)?,
                    )
                } else {
                    (None, self.eval_vector(&args[1], guard)?)
                };
                for i in 0..LANES {
                    let lane = match &mask {
                        None => self.ctx.bool_const(true),
                        Some(mask) => {
                            let zero = self.ctx.bv32(0);
                            self.ctx.bv_slt(mask[i], zero)
                        }
                    };
                    self.write_cell(array, base + i as i64, value[i], guard, lane)?;
                }
                Ok(SymValue::Scalar(self.ctx.bv32(0)))
            }
            _ => self.eval_pure_intrinsic(callee, args, guard),
        }
    }

    fn eval_pure_intrinsic(
        &mut self,
        callee: &str,
        args: &'f [Expr],
        guard: TermId,
    ) -> Result<SymValue, SymExecError> {
        let zero32 = self.ctx.bv32(0);
        let splat = |v: TermId| -> [TermId; LANES] { [v; LANES] };
        // No intrinsic takes more than `LANES` operands (`setr_epi32`).
        let mut vec_args = [splat(zero32); LANES];
        let mut scalar_args = [zero32; LANES];
        let (mut vecs, mut scalars) = (0, 0);
        let sig = lv_cir::intrinsics::intrinsic_sig(callee).ok_or_else(|| {
            SymExecError::new(format!(
                "intrinsic `{}` is not modelled by the verifier",
                callee
            ))
        })?;
        if args.len() < sig.params.len() {
            // The type checker refuses such a call; without the check the
            // missing operands would read as zeros.
            return Err(SymExecError::new(format!(
                "`{}` expects {} arguments, found {}",
                callee,
                sig.params.len(),
                args.len()
            )));
        }
        for (arg, slot) in args.iter().zip(sig.params.iter()) {
            match slot {
                lv_cir::intrinsics::IntrinsicType::I32 => {
                    scalar_args[scalars] = self.eval_scalar(arg, guard)?;
                    scalars += 1;
                }
                lv_cir::intrinsics::IntrinsicType::Vec => {
                    vec_args[vecs] = self.eval_vector(arg, guard)?;
                    vecs += 1;
                }
                _ => {
                    return Err(SymExecError::new(format!(
                        "unexpected memory operand in pure intrinsic `{}`",
                        callee
                    )))
                }
            }
        }
        let lanewise2 = |s: &mut Self, f: &dyn Fn(&mut Context, TermId, TermId) -> TermId| {
            let mut out = splat(zero32);
            for i in 0..LANES {
                out[i] = f(s.ctx, vec_args[0][i], vec_args[1][i]);
            }
            SymValue::Vector(out)
        };
        let result = match callee {
            "_mm256_setzero_si256" => SymValue::Vector(splat(zero32)),
            "_mm256_set1_epi32" => SymValue::Vector(splat(scalar_args[0])),
            "_mm256_setr_epi32" | "_mm256_set_epi32" => {
                let mut lanes = splat(zero32);
                for i in 0..LANES {
                    lanes[i] = if callee == "_mm256_setr_epi32" {
                        scalar_args[i]
                    } else {
                        scalar_args[LANES - 1 - i]
                    };
                }
                SymValue::Vector(lanes)
            }
            "_mm256_add_epi32" => lanewise2(self, &|c, a, b| c.bv_add(a, b)),
            "_mm256_sub_epi32" => lanewise2(self, &|c, a, b| c.bv_sub(a, b)),
            "_mm256_mullo_epi32" => lanewise2(self, &|c, a, b| c.bv_mul(a, b)),
            "_mm256_and_si256" => lanewise2(self, &|c, a, b| c.bv_and(a, b)),
            "_mm256_or_si256" => lanewise2(self, &|c, a, b| c.bv_or(a, b)),
            "_mm256_xor_si256" => lanewise2(self, &|c, a, b| c.bv_xor(a, b)),
            "_mm256_andnot_si256" => lanewise2(self, &|c, a, b| {
                let na = c.bv_not(a);
                c.bv_and(na, b)
            }),
            "_mm256_max_epi32" => lanewise2(self, &|c, a, b| {
                let gt = c.bv_slt(b, a);
                c.ite(gt, a, b)
            }),
            "_mm256_min_epi32" => lanewise2(self, &|c, a, b| {
                let lt = c.bv_slt(a, b);
                c.ite(lt, a, b)
            }),
            "_mm256_cmpgt_epi32" => lanewise2(self, &|c, a, b| {
                let gt = c.bv_slt(b, a);
                let ones = c.bv32(-1);
                let zero = c.bv32(0);
                c.ite(gt, ones, zero)
            }),
            "_mm256_cmpeq_epi32" => lanewise2(self, &|c, a, b| {
                let eq = c.eq(a, b);
                let ones = c.bv32(-1);
                let zero = c.bv32(0);
                c.ite(eq, ones, zero)
            }),
            "_mm256_abs_epi32" => {
                let mut out = splat(zero32);
                for i in 0..LANES {
                    let a = vec_args[0][i];
                    let neg = self.ctx.bv_neg(a);
                    let zero = self.ctx.bv32(0);
                    let is_neg = self.ctx.bv_slt(a, zero);
                    out[i] = self.ctx.ite(is_neg, neg, a);
                }
                SymValue::Vector(out)
            }
            "_mm256_blendv_epi8" => {
                // Byte-wise, as `lv_simd::I32x8::blendv` runs it: byte j of
                // a lane comes from `b` when bit 8j + 7 of the mask lane is
                // set. For a sign-splat mask `ite(p, -1, 0)` (what cmpgt,
                // cmpeq and their complements produce) the four byte
                // selectors fold to one term `p`, and the lane is the
                // lane-wise `ite(p, b, a)`.
                let mut out = splat(zero32);
                for (i, lane) in out.iter_mut().enumerate() {
                    let (a, b, mask) = (vec_args[0][i], vec_args[1][i], vec_args[2][i]);
                    let mut selectors = [a; 4];
                    for (j, selector) in selectors.iter_mut().enumerate() {
                        let msb = self.ctx.bv_const(0x80 << (8 * j), 32);
                        let bit = self.ctx.bv_and(mask, msb);
                        *selector = self.ctx.ne(bit, zero32);
                    }
                    *lane = if selectors.iter().all(|&s| s == selectors[0]) {
                        self.ctx.ite(selectors[0], b, a)
                    } else {
                        let mut blended = zero32;
                        for (j, &selector) in selectors.iter().enumerate() {
                            let byte = self.ctx.bv_const(0xff << (8 * j), 32);
                            let from_b = self.ctx.bv_and(b, byte);
                            let from_a = self.ctx.bv_and(a, byte);
                            let pick = self.ctx.ite(selector, from_b, from_a);
                            blended = self.ctx.bv_or(blended, pick);
                        }
                        blended
                    };
                }
                SymValue::Vector(out)
            }
            "_mm256_slli_epi32" | "_mm256_srli_epi32" | "_mm256_srai_epi32" => {
                let mut out = splat(zero32);
                for i in 0..LANES {
                    let a = vec_args[0][i];
                    let amount = scalar_args[0];
                    out[i] = match callee {
                        "_mm256_slli_epi32" => self.ctx.bv_shl(a, amount),
                        "_mm256_srli_epi32" => self.ctx.bv_lshr(a, amount),
                        _ => self.ctx.bv_ashr(a, amount),
                    };
                }
                SymValue::Vector(out)
            }
            "_mm256_extract_epi32" => {
                let idx = self
                    .ctx
                    .as_bv_const(scalar_args[0])
                    .ok_or_else(|| SymExecError::new("extract lane index must be constant"))?;
                SymValue::Scalar(vec_args[0][(idx as usize) % LANES])
            }
            "_mm256_insert_epi32" => {
                let idx = self
                    .ctx
                    .as_bv_const(scalar_args[1])
                    .ok_or_else(|| SymExecError::new("insert lane index must be constant"))?;
                let mut out = vec_args[0];
                out[(idx as usize) % LANES] = scalar_args[0];
                SymValue::Vector(out)
            }
            "_mm256_hadd_epi32" => {
                let a = vec_args[0];
                let b = vec_args[1];
                let mut out = splat(zero32);
                let pairs = [
                    (a[0], a[1]),
                    (a[2], a[3]),
                    (b[0], b[1]),
                    (b[2], b[3]),
                    (a[4], a[5]),
                    (a[6], a[7]),
                    (b[4], b[5]),
                    (b[6], b[7]),
                ];
                for (i, (x, y)) in pairs.into_iter().enumerate() {
                    out[i] = self.ctx.bv_add(x, y);
                }
                SymValue::Vector(out)
            }
            "_mm256_permutevar8x32_epi32" => {
                // Lane indices must be constants for the verifier (they are in
                // all generated code).
                let mut out = splat(zero32);
                for i in 0..LANES {
                    let idx = self
                        .ctx
                        .as_bv_const(vec_args[1][i])
                        .ok_or_else(|| SymExecError::new("permutevar indices must be constants"))?;
                    out[i] = vec_args[0][(idx as usize) & 7];
                }
                SymValue::Vector(out)
            }
            "_mm256_shuffle_epi32" | "_mm256_permute2x128_si256" | "_mm256_movemask_epi8" => {
                return Err(SymExecError::new(format!(
                    "intrinsic `{}` is recognized but not encoded by the verifier",
                    callee
                )))
            }
            other => {
                return Err(SymExecError::new(format!(
                    "intrinsic `{}` is not modelled by the verifier",
                    other
                )))
            }
        };
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;
    use lv_smt::{Solver, SolverBudget, Validity};

    fn exec_with(
        ctx: &mut Context,
        src: &str,
        n: i32,
        len: usize,
    ) -> Result<SymOutcome, SymExecError> {
        let func = parse_function(src).unwrap();
        let mut config = SymExecConfig {
            array_len: len,
            ..SymExecConfig::default()
        };
        config.scalar_bindings.insert("n".into(), n);
        sym_exec(ctx, &func, &config)
    }

    #[test]
    fn straight_line_stores() {
        let mut solver = Solver::new();
        let out = exec_with(
            &mut solver.ctx,
            "void f(int n, int *a, int *b) { a[0] = b[0] + 1; }",
            4,
            4,
        )
        .unwrap();
        // a[0] must equal b!0 + 1.
        let b0 = solver.ctx.bv_var("b!0", 32);
        let one = solver.ctx.bv32(1);
        let expected = solver.ctx.bv_add(b0, one);
        let eq = solver.ctx.eq(out.arrays[0][0], expected);
        assert_eq!(
            solver.check_validity(eq, &SolverBudget::default()),
            Validity::Valid
        );
    }

    #[test]
    fn loop_unrolls_with_concrete_bound() {
        let mut solver = Solver::new();
        let out = exec_with(
            &mut solver.ctx,
            "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
            4,
            6,
        )
        .unwrap();
        assert_eq!(out.unrolled_iterations, 4);
        // Cells beyond the trip count keep their initial symbolic value.
        let a5 = solver.ctx.bv_var("a!5", 32);
        assert_eq!(out.arrays[0][5], a5);
    }

    #[test]
    fn if_else_becomes_ite() {
        let mut solver = Solver::new();
        let out = exec_with(
            &mut solver.ctx,
            "void f(int n, int *a, int *b) { if (b[0] > 0) { a[0] = 1; } else { a[0] = 2; } }",
            4,
            2,
        )
        .unwrap();
        // For b!0 = 5 the result must be 1; for b!0 = -5 it must be 2.
        let b0 = solver.ctx.bv_var("b!0", 32);
        let five = solver.ctx.bv32(5);
        let one = solver.ctx.bv32(1);
        let pre = solver.ctx.eq(b0, five);
        let post = solver.ctx.eq(out.arrays[0][0], one);
        let vc = solver.ctx.implies(pre, post);
        assert_eq!(
            solver.check_validity(vc, &SolverBudget::default()),
            Validity::Valid
        );
    }

    #[test]
    fn goto_suppression_matches_if_else() {
        let mut solver = Solver::new();
        // s278-style forward gotos.
        let out = exec_with(
            &mut solver.ctx,
            "void f(int n, int *a, int *b) { if (b[0] > 0) { goto L1; } a[0] = 10; goto L2; L1: a[0] = 20; L2: a[1] = a[0]; }",
            4,
            4,
        )
        .unwrap();
        let b0 = solver.ctx.bv_var("b!0", 32);
        let zero = solver.ctx.bv32(0);
        let twenty = solver.ctx.bv32(20);
        let ten = solver.ctx.bv32(10);
        let pos = solver.ctx.bv_sgt(b0, zero);
        let expected = solver.ctx.ite(pos, twenty, ten);
        let eq0 = solver.ctx.eq(out.arrays[0][0], expected);
        let eq1 = solver.ctx.eq(out.arrays[0][1], expected);
        let both = solver.ctx.and(eq0, eq1);
        assert_eq!(
            solver.check_validity(both, &SolverBudget::default()),
            Validity::Valid
        );
    }

    #[test]
    fn vector_intrinsics_match_scalar_loop() {
        // A full equivalence check in miniature: 8-wide add against the
        // scalar loop, n = 8.
        let mut solver = Solver::new();
        let scalar_out = exec_with(
            &mut solver.ctx,
            "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
            8,
            8,
        )
        .unwrap();
        let vector_out = exec_with(
            &mut solver.ctx,
            "void f(int n, int *a, int *b) { for (int i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); __m256i y = _mm256_add_epi32(x, _mm256_set1_epi32(1)); _mm256_storeu_si256((__m256i *)&a[i], y); } }",
            8,
            8,
        )
        .unwrap();
        let mut all = solver.ctx.bool_const(true);
        for i in 0..8 {
            let eq = solver
                .ctx
                .eq(scalar_out.arrays[0][i], vector_out.arrays[0][i]);
            all = solver.ctx.and(all, eq);
        }
        assert_eq!(
            solver.check_validity(all, &SolverBudget::default()),
            Validity::Valid
        );
    }

    #[test]
    fn out_of_bounds_sets_ub() {
        let mut solver = Solver::new();
        let out = exec_with(&mut solver.ctx, "void f(int n, int *a) { a[6] = 1; }", 4, 4).unwrap();
        assert_eq!(solver.ctx.as_bool_const(out.ub), Some(true));
    }

    #[test]
    fn reduction_scalar_state() {
        let mut solver = Solver::new();
        let out = exec_with(
            &mut solver.ctx,
            "void f(int n, int *a, int *out) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } out[0] = s; }",
            3,
            4,
        )
        .unwrap();
        let a0 = solver.ctx.bv_var("a!0", 32);
        let a1 = solver.ctx.bv_var("a!1", 32);
        let a2 = solver.ctx.bv_var("a!2", 32);
        let s01 = solver.ctx.bv_add(a0, a1);
        let expected = solver.ctx.bv_add(s01, a2);
        let eq = solver.ctx.eq(out.arrays[1][0], expected);
        assert_eq!(
            solver.check_validity(eq, &SolverBudget::default()),
            Validity::Valid
        );
    }

    #[test]
    fn symbolic_loop_bound_is_rejected() {
        let mut solver = Solver::new();
        let func =
            parse_function("void f(int n, int *a) { for (int i = 0; i < n; i++) { a[i] = 0; } }")
                .unwrap();
        // No binding for n: the loop condition cannot fold.
        let err = sym_exec(&mut solver.ctx, &func, &SymExecConfig::default()).unwrap_err();
        assert!(err.reason.contains("does not fold"), "{}", err);
    }

    #[test]
    fn backward_goto_is_rejected() {
        let mut solver = Solver::new();
        let func =
            parse_function("void f(int n, int *a) { L1: a[0] = a[0] + 1; goto L1; }").unwrap();
        let mut config = SymExecConfig::default();
        config.scalar_bindings.insert("n".into(), 1);
        let err = sym_exec(&mut solver.ctx, &func, &config).unwrap_err();
        assert!(err.reason.contains("backward goto"), "{}", err);
    }

    #[test]
    fn unmodelled_intrinsic_is_rejected() {
        let mut solver = Solver::new();
        let func = parse_function(
            "void f(int n, int *a) { __m256i x = _mm256_loadu_si256((__m256i *)&a[0]); __m256i y = _mm256_shuffle_epi32(x, 27); _mm256_storeu_si256((__m256i *)&a[0], y); }",
        )
        .unwrap();
        let mut config = SymExecConfig::default();
        config.scalar_bindings.insert("n".into(), 8);
        let err = sym_exec(&mut solver.ctx, &func, &config).unwrap_err();
        assert!(err.reason.contains("not encoded"), "{}", err);
    }

    /// SplitMix64 for the differential tests.
    fn next_random(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An operand of an intrinsic call in the differential table.
    #[derive(Clone, Copy)]
    enum Operand {
        /// The vector loaded from array `a`, `b` or `m` (0, 1, 2).
        V(usize),
        /// Scalar parameter `s0` … `s7`.
        S(usize),
        /// `_mm256_setr_epi32(s0, …, s7)`: constant lanes, for the index
        /// vector of `permutevar8x32`.
        Lanes,
    }
    use Operand::{Lanes, S, V};

    const EIGHT_SCALARS: &[Operand] = &[S(0), S(1), S(2), S(3), S(4), S(5), S(6), S(7)];

    /// Every pure intrinsic `sym_exec` encodes: its operands, and whether
    /// its scalar operands must be constants (lane indices).
    const ENCODED: &[(&str, &[Operand], bool)] = &[
        ("_mm256_setzero_si256", &[], false),
        ("_mm256_set1_epi32", &[S(0)], false),
        ("_mm256_setr_epi32", EIGHT_SCALARS, false),
        ("_mm256_set_epi32", EIGHT_SCALARS, false),
        ("_mm256_add_epi32", &[V(0), V(1)], false),
        ("_mm256_sub_epi32", &[V(0), V(1)], false),
        ("_mm256_mullo_epi32", &[V(0), V(1)], false),
        ("_mm256_and_si256", &[V(0), V(1)], false),
        ("_mm256_or_si256", &[V(0), V(1)], false),
        ("_mm256_xor_si256", &[V(0), V(1)], false),
        ("_mm256_andnot_si256", &[V(0), V(1)], false),
        ("_mm256_max_epi32", &[V(0), V(1)], false),
        ("_mm256_min_epi32", &[V(0), V(1)], false),
        ("_mm256_cmpgt_epi32", &[V(0), V(1)], false),
        ("_mm256_cmpeq_epi32", &[V(0), V(1)], false),
        ("_mm256_hadd_epi32", &[V(0), V(1)], false),
        ("_mm256_abs_epi32", &[V(0)], false),
        ("_mm256_blendv_epi8", &[V(0), V(1), V(2)], false),
        ("_mm256_slli_epi32", &[V(0), S(0)], false),
        ("_mm256_srli_epi32", &[V(0), S(0)], false),
        ("_mm256_srai_epi32", &[V(0), S(0)], false),
        ("_mm256_extract_epi32", &[V(0), S(0)], true),
        ("_mm256_insert_epi32", &[V(0), S(1), S(0)], true),
        ("_mm256_permutevar8x32_epi32", &[V(0), Lanes], true),
    ];

    /// Pure intrinsics the type checker accepts but `sym_exec` refuses.
    const NOT_ENCODED: &[(&str, &[Operand])] = &[
        ("_mm256_shuffle_epi32", &[V(0), S(0)]),
        ("_mm256_permute2x128_si256", &[V(0), V(1), S(0)]),
        ("_mm256_movemask_epi8", &[V(0)]),
    ];

    /// `void f(…)` storing `name(operands)` to `o` (a scalar result to
    /// `o[0]`), with vectors `v0`, `v1`, `v2` loaded from `a`, `b`, `m`.
    fn intrinsic_source(name: &str, operands: &[Operand]) -> String {
        let text: Vec<String> = operands
            .iter()
            .map(|operand| match operand {
                V(k) => format!("v{k}"),
                S(k) => format!("s{k}"),
                Lanes => "_mm256_setr_epi32(s0, s1, s2, s3, s4, s5, s6, s7)".to_string(),
            })
            .collect();
        let call = format!("{}({})", name, text.join(", "));
        let store = if lv_cir::intrinsics::intrinsic_sig(name).unwrap().ret
            == lv_cir::intrinsics::IntrinsicType::I32
        {
            format!("o[0] = {call};")
        } else {
            format!("_mm256_storeu_si256((__m256i *)&o[0], {call});")
        };
        format!(
            "void f(int n, int *a, int *b, int *m, int *o, int s0, int s1, int s2, int s3, \
             int s4, int s5, int s6, int s7) {{ \
             __m256i v0 = _mm256_loadu_si256((__m256i *)&a[0]); \
             __m256i v1 = _mm256_loadu_si256((__m256i *)&b[0]); \
             __m256i v2 = _mm256_loadu_si256((__m256i *)&m[0]); {store} }}"
        )
    }

    /// A scalar operand: an edge value (negative, zero, ≥ 32 shift counts,
    /// the extremes), a small value around the lane and shift ranges, or a
    /// random word.
    fn random_scalar(state: &mut u64) -> i32 {
        const EDGES: [i32; 11] = [0, 1, 8, 31, 32, 33, 256, -1, -32, i32::MIN, i32::MAX];
        let r = next_random(state);
        match r % 3 {
            0 => EDGES[(r >> 8) as usize % EDGES.len()],
            1 => ((r >> 8) % 81) as i32 - 40,
            _ => (r >> 32) as i32,
        }
    }

    #[test]
    fn every_encoded_intrinsic_matches_lv_simd() {
        // The table covers every pure intrinsic the type checker knows.
        for sig in lv_cir::intrinsics::INTRINSICS {
            assert!(
                lv_simd::is_memory_intrinsic(sig.name)
                    || ENCODED.iter().any(|(name, ..)| *name == sig.name)
                    || NOT_ENCODED.iter().any(|(name, _)| *name == sig.name),
                "`{}` is missing from the differential table",
                sig.name
            );
        }
        let config_with = |scalars: Option<&[i32; LANES]>| {
            let mut config = SymExecConfig {
                array_len: LANES,
                ..SymExecConfig::default()
            };
            config.scalar_bindings.insert("n".into(), 8);
            for (k, &value) in scalars.into_iter().flatten().enumerate() {
                config.scalar_bindings.insert(format!("s{k}"), value);
            }
            config
        };
        for (name, operands) in NOT_ENCODED {
            let func = parse_function(&intrinsic_source(name, operands)).unwrap();
            let err = sym_exec(&mut Context::new(), &func, &config_with(None)).unwrap_err();
            assert!(err.to_string().contains("not encoded"), "{name}: {err}");
        }

        let mut state = 7;
        for &(name, operands, constant_scalars) in ENCODED {
            let func = parse_function(&intrinsic_source(name, operands)).unwrap();
            // With symbolic scalar operands the terms are built once and
            // evaluated under every trial's assignment.
            let mut symbolic_ctx = Context::new();
            let symbolic = (!constant_scalars)
                .then(|| sym_exec(&mut symbolic_ctx, &func, &config_with(None)).unwrap());
            for trial in 0..64 {
                let mut vectors = [[0i32; LANES]; 3];
                for (k, vector) in vectors.iter_mut().enumerate() {
                    for lane in vector.iter_mut() {
                        let r = next_random(&mut state);
                        // Every fourth blendv mask is a sign splat, as
                        // cmpgt and cmpeq produce.
                        *lane = if k == 2 && trial % 4 == 0 {
                            -((r & 1) as i32)
                        } else {
                            r as i32
                        };
                    }
                }
                let mut scalars = [0i32; LANES];
                for scalar in &mut scalars {
                    *scalar = random_scalar(&mut state);
                }
                let args: Vec<lv_simd::SimdArg> = operands
                    .iter()
                    .map(|operand| match *operand {
                        V(k) => lv_simd::I32x8::from_lanes(vectors[k]).into(),
                        S(k) => scalars[k].into(),
                        Lanes => lv_simd::I32x8::from_lanes(scalars).into(),
                    })
                    .collect();
                let want: Vec<i32> = match lv_simd::eval_intrinsic(name, &args).unwrap() {
                    lv_simd::SimdValue::Vector(v) => v.lanes().to_vec(),
                    lv_simd::SimdValue::Scalar(x) => vec![x],
                };
                let value_of = |var: &str| -> u64 {
                    let value = match var.split_once('!') {
                        Some((array, index)) => {
                            let index: usize = index.parse().unwrap();
                            match array {
                                "a" => vectors[0][index],
                                "b" => vectors[1][index],
                                "m" => vectors[2][index],
                                "o" => 0,
                                other => panic!("unexpected array {other}"),
                            }
                        }
                        None => scalars[var[1..].parse::<usize>().unwrap()],
                    };
                    value as u32 as u64
                };
                // Even trials (and lane-index operands always) bind the
                // scalars as constants, so the constructors fold them.
                let mut bound_ctx = Context::new();
                let (ctx, out) = match &symbolic {
                    Some(out) if trial % 2 == 1 => (&symbolic_ctx, out.clone()),
                    _ => {
                        let out =
                            sym_exec(&mut bound_ctx, &func, &config_with(Some(&scalars))).unwrap();
                        (&bound_ctx, out)
                    }
                };
                for (lane, &expected) in want.iter().enumerate() {
                    let got = ctx.eval(out.arrays[3][lane], &value_of) as u32 as i32;
                    assert_eq!(
                        got, expected,
                        "{name} lane {lane}: vectors {vectors:?}, scalars {scalars:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn blendv_of_a_sign_splat_mask_is_a_lane_select() {
        // cmpgt masks keep the lane-wise ite the scalar `if` builds.
        let mut ctx = Context::new();
        let out = exec_with(
            &mut ctx,
            "void f(int n, int *a, int *b) { __m256i x = _mm256_loadu_si256((__m256i *)&a[0]); __m256i y = _mm256_loadu_si256((__m256i *)&b[0]); __m256i k = _mm256_cmpgt_epi32(y, _mm256_setzero_si256()); _mm256_storeu_si256((__m256i *)&a[0], _mm256_blendv_epi8(x, y, k)); }",
            8,
            8,
        )
        .unwrap();
        let scalar = exec_with(
            &mut ctx,
            "void f(int n, int *a, int *b) { for (int i = 0; i < 8; i++) { if (b[i] > 0) { a[i] = b[i]; } } }",
            8,
            8,
        )
        .unwrap();
        assert_eq!(out.arrays[0], scalar.arrays[0]);
    }

    #[test]
    fn if_else_merges_both_branches_from_the_state_before_the_if() {
        // The else branch reads `a[0]` as it was before the `if`, not the
        // then branch's guarded write, and the join is one ite per cell.
        let mut ctx = Context::new();
        let out = exec_with(
            &mut ctx,
            "void f(int n, int *a, int *b) { int s = a[0]; if (b[0] > 0) { a[0] = b[0]; s = 1; } else { a[0] = a[0] + 1; } a[1] = s; }",
            4,
            2,
        )
        .unwrap();
        let a0 = ctx.bv_var("a!0", 32);
        let b0 = ctx.bv_var("b!0", 32);
        let zero = ctx.bv32(0);
        let one = ctx.bv32(1);
        let taken = ctx.bv_slt(zero, b0);
        let incremented = ctx.bv_add(a0, one);
        assert_eq!(out.arrays[0][0], ctx.ite(taken, b0, incremented));
        assert_eq!(out.arrays[0][1], ctx.ite(taken, one, a0));
    }

    #[test]
    fn an_intrinsic_call_missing_operands_is_rejected() {
        let mut ctx = Context::new();
        let err = exec_with(
            &mut ctx,
            "void f(int n, int *a) { __m256i x = _mm256_loadu_si256((__m256i *)&a[0]); _mm256_storeu_si256((__m256i *)&a[0], _mm256_add_epi32(x)); }",
            8,
            8,
        )
        .unwrap_err();
        assert_eq!(
            err.reason,
            "`_mm256_add_epi32` expects 2 arguments, found 1"
        );
    }

    #[test]
    fn a_pointer_that_differs_across_branches_is_rejected() {
        let mut ctx = Context::new();
        let err = exec_with(
            &mut ctx,
            "void f(int n, int *a, int *b) { int *p = a; if (b[0] > 0) { p = b; } p[0] = 1; }",
            4,
            2,
        )
        .unwrap_err();
        assert_eq!(
            err.reason,
            "Var(\"p\") differs across the branches of an `if`: \
             Ptr { array: \"b\", offset: 0 } vs Ptr { array: \"a\", offset: 0 }"
        );
    }

    #[test]
    fn a_pointer_assigned_a_scalar_names_its_array() {
        let mut ctx = Context::new();
        let err = exec_with(
            &mut ctx,
            "void f(int n, int *a, int *b) { int *p = b + 2; p = n; a[0] = 1; }",
            4,
            2,
        )
        .unwrap_err();
        let n = ctx.bv32(4);
        assert_eq!(
            err.reason,
            format!(
                "assignment to `p` changes its kind \
                 (Some(Ptr {{ array: \"b\", offset: 2 }}) -> Scalar({n:?}))"
            )
        );
    }

    #[test]
    fn a_bound_function_reads_the_inputs_at_its_parameter_positions() {
        let mut ctx = Context::new();
        let config = SymExecConfig {
            array_len: 4,
            ..SymExecConfig::default()
        };
        let scalar = parse_function("void f(int n, int *a, int *b) { a[0] = b[0]; }").unwrap();
        // The same computation with the arrays renamed and swapped in the
        // signature: position 1 is still written from position 2.
        let swapped = parse_function("void g(int m, int *b, int *a) { b[0] = a[0]; }").unwrap();
        let src = sym_exec(&mut ctx, &scalar, &config).unwrap();
        let tgt = sym_exec_bound(&mut ctx, &swapped, &scalar, &config).unwrap();
        assert_eq!(src.arrays, tgt.arrays);

        let short = parse_function("void h(int n, int *a) { a[0] = 1; }").unwrap();
        let err = sym_exec_bound(&mut ctx, &short, &scalar, &config).unwrap_err();
        assert_eq!(
            err.reason,
            "`h` takes 2 parameters but is bound to the 3 inputs of `f`"
        );
        let retyped = parse_function("void h(int n, int a, int *b) { b[0] = a; }").unwrap();
        let err = sym_exec_bound(&mut ctx, &retyped, &scalar, &config).unwrap_err();
        assert_eq!(
            err.reason,
            "parameter 2 `a` has type int but input 2 `a` has type int *"
        );
    }
}
