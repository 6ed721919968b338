//! The concrete interpreter for mini-C functions.
//!
//! This is the reproduction's stand-in for "compile with Clang and run": it
//! executes both the scalar kernel and the vectorized candidate on concrete
//! inputs so that the checksum harness can compare their observable effects
//! (the final contents of the array arguments).
//!
//! # Binding
//!
//! Arguments bind by parameter position ([`ArgBindings`]): argument `i`
//! initializes parameter `i`, and each array argument gets its own memory
//! region in parameter order. The final arrays come back by position too
//! ([`ExecResult::arrays`]), so a run looks up, copies and hashes no
//! parameter name.
//!
//! # Environment
//!
//! Variables live on one flat stack of `(name, value)` slots whose names are
//! borrowed from the AST, so declaring a variable copies no string. A block
//! (and a `for` header) records the stack height on entry and truncates back
//! to it on exit; a lookup scans down from the top, so the innermost
//! declaration of a name shadows the outer ones, and a redeclaration in the
//! same block overwrites its slot. The pure-intrinsic argument list is a
//! second stack reused the same way. After the first trips have grown the
//! two stacks, running a loop allocates nothing per iteration or per block.

use crate::error::{ExecError, UbDetail, UbEvent, UbKind};
use crate::memory::{Memory, Pointer, Value};
use lv_cir::ast::{AssignOp, BinOp, Block, Expr, Function, Stmt, Type, UnOp};
use lv_simd::{eval_intrinsic, SimdArg, SimdValue};

/// Configuration for a single execution.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Maximum number of executed statements/loop iterations before the run
    /// is aborted with [`ExecError::StepLimitExceeded`].
    pub max_steps: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_steps: 20_000_000,
        }
    }
}

/// One concrete argument of a kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    /// The value of a scalar `int` parameter.
    Int(i32),
    /// The initial contents of an array (`int *`) parameter.
    Array(Vec<i32>),
}

/// Concrete argument bindings for a kernel invocation, by parameter
/// position: argument `i` binds parameter `i`, whatever the parameter is
/// called. Two kernels with the same parameter types therefore run on the
/// same inputs however either spells its parameters, as two calls of C
/// functions with one signature would.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArgBindings {
    /// One argument per parameter, in parameter order.
    pub args: Vec<Arg>,
}

impl ArgBindings {
    /// Creates an empty binding set.
    pub fn new() -> ArgBindings {
        ArgBindings::default()
    }

    /// Appends a scalar argument for the next parameter (builder style).
    pub fn scalar(mut self, value: i32) -> ArgBindings {
        self.args.push(Arg::Int(value));
        self
    }

    /// Appends an array argument for the next parameter (builder style).
    pub fn array(mut self, data: Vec<i32>) -> ArgBindings {
        self.args.push(Arg::Array(data));
        self
    }
}

/// What the interpreter observed during a run.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Number of statements / loop iterations executed.
    pub steps: u64,
    /// All recorded UB events (fatal ones also produce an error).
    pub ub_events: Vec<UbEvent>,
}

impl ExecReport {
    /// Returns `true` if any *non-fatal* UB (signed overflow) was recorded.
    pub fn had_signed_overflow(&self) -> bool {
        self.ub_events
            .iter()
            .any(|e| e.kind == UbKind::SignedOverflow)
    }
}

/// The result of a successful run: the final array contents plus the report.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Final contents of every array parameter, by position among the array
    /// parameters: `arrays[k]` is the `k`-th `int *` parameter.
    pub arrays: Vec<Vec<i32>>,
    /// Final values of the scalar `int` parameters, by position among the
    /// scalar parameters (locals are out of scope at function exit).
    pub scalars: Vec<i32>,
    /// Execution statistics and UB log.
    pub report: ExecReport,
}

/// Runs a kernel on the given argument bindings, argument `i` bound to
/// parameter `i`.
///
/// # Errors
///
/// Returns an [`ExecError`] on fatal undefined behaviour (out-of-bounds
/// access, division by zero, out-of-range shifts), on a missing argument, on
/// an argument whose kind (scalar or array) differs from its parameter's or
/// that has no parameter, on runaway loops exceeding the step budget, and on
/// dynamic type mismatches that indicate the program would not have type
/// checked.
pub fn run_function(
    func: &Function,
    args: &ArgBindings,
    config: &ExecConfig,
) -> Result<ExecResult, ExecError> {
    let mut interp = Interp::new(func, args, config)?;
    let flow = interp.exec_block(&func.body)?;
    if let Flow::Goto(label) = flow {
        return Err(ExecError::MissingLabel(label.to_string()));
    }
    Ok(interp.finish(func))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow<'a> {
    Normal,
    Break,
    Continue,
    Return,
    Goto(&'a str),
}

struct Interp<'a> {
    memory: Memory<'a>,
    /// Every variable in scope, outermost first (see the module docs); the
    /// parameters are the bottom slots.
    vars: Vec<(&'a str, Value)>,
    /// Evaluated arguments of the pure intrinsic calls being evaluated.
    simd_args: Vec<SimdArg>,
    steps: u64,
    config: &'a ExecConfig,
}

impl<'a> Interp<'a> {
    fn new(
        func: &'a Function,
        args: &ArgBindings,
        config: &'a ExecConfig,
    ) -> Result<Self, ExecError> {
        let mut interp = Interp {
            memory: Memory::with_capacity(func.params.len()),
            vars: Vec::new(),
            simd_args: Vec::new(),
            steps: 0,
            config,
        };
        if args.args.len() > func.params.len() {
            return Err(ExecError::TypeMismatch(format!(
                "{} arguments supplied for {} parameters",
                args.args.len(),
                func.params.len()
            )));
        }
        for (position, param) in func.params.iter().enumerate() {
            let arg = args
                .args
                .get(position)
                .ok_or_else(|| ExecError::MissingArgument(param.name.clone()))?;
            let value = match (&param.ty, arg) {
                (Type::Int, Arg::Int(value)) => Value::Int(*value),
                (Type::Ptr(_), Arg::Array(data)) => {
                    let region = interp.memory.alloc_region(&param.name, data.clone());
                    Value::Ptr(Pointer { region, offset: 0 })
                }
                (Type::Int | Type::Ptr(_), _) => {
                    return Err(ExecError::TypeMismatch(format!(
                        "parameter {} `{}` of type {} is bound to {}",
                        position + 1,
                        param.name,
                        param.ty,
                        match arg {
                            Arg::Int(_) => "a scalar",
                            Arg::Array(_) => "an array",
                        }
                    )))
                }
                (other, _) => {
                    return Err(ExecError::TypeMismatch(format!(
                        "parameter `{}` has unsupported type {}",
                        param.name, other
                    )))
                }
            };
            interp.declare(0, &param.name, value);
        }
        Ok(interp)
    }

    fn finish(mut self, func: &Function) -> ExecResult {
        // Only the parameters are left on the stack; a repeated parameter
        // name shares one slot, as it shares one binding in the body.
        let scalars = func
            .params
            .iter()
            .filter(|p| p.ty == Type::Int)
            .filter_map(|p| match self.vars.iter().find(|(n, _)| *n == p.name) {
                Some(&(_, Value::Int(v))) => Some(v),
                _ => None,
            })
            .collect();
        ExecResult {
            scalars,
            report: ExecReport {
                steps: self.steps,
                ub_events: std::mem::take(&mut self.memory.ub_events),
            },
            // Regions are allocated for the array parameters in order.
            arrays: self.memory.into_regions(),
        }
    }

    fn tick(&mut self) -> Result<(), ExecError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            return Err(ExecError::StepLimitExceeded {
                limit: self.config.max_steps,
            });
        }
        Ok(())
    }

    // ---- environment ------------------------------------------------------

    /// Declares `name` in the scope that starts at stack height `scope`:
    /// a redeclaration in the same scope overwrites its slot.
    fn declare(&mut self, scope: usize, name: &'a str, value: Value) {
        match self.vars[scope..].iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.vars.push((name, value)),
        }
    }

    fn slot(&mut self, name: &str) -> Result<&mut Value, ExecError> {
        match self.vars.iter_mut().rev().find(|(n, _)| *n == name) {
            Some((_, value)) => Ok(value),
            None => Err(ExecError::UnboundVariable(name.to_string())),
        }
    }

    fn lookup(&mut self, name: &str) -> Result<Value, ExecError> {
        self.slot(name).copied()
    }

    fn assign_var(&mut self, name: &str, value: Value) -> Result<(), ExecError> {
        *self.slot(name)? = value;
        Ok(())
    }

    // ---- statements ---------------------------------------------------------

    fn exec_block(&mut self, block: &'a Block) -> Result<Flow<'a>, ExecError> {
        let scope = self.vars.len();
        let result = self.exec_block_inner(block, scope);
        self.vars.truncate(scope);
        result
    }

    fn exec_block_inner(&mut self, block: &'a Block, scope: usize) -> Result<Flow<'a>, ExecError> {
        let mut idx = 0usize;
        while idx < block.stmts.len() {
            let flow = self.exec_stmt(&block.stmts[idx], scope)?;
            match flow {
                Flow::Normal => idx += 1,
                Flow::Goto(label) => {
                    // Look for the label at this block level; if present jump
                    // there, otherwise propagate to the enclosing block.
                    match block
                        .stmts
                        .iter()
                        .position(|s| matches!(s, Stmt::Label(l) if *l == label))
                    {
                        Some(target) => idx = target + 1,
                        None => return Ok(Flow::Goto(label)),
                    }
                }
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Runs one statement of the scope that starts at stack height `scope`.
    fn exec_stmt(&mut self, stmt: &'a Stmt, scope: usize) -> Result<Flow<'a>, ExecError> {
        self.tick()?;
        match stmt {
            Stmt::Decl { ty, name, init } => {
                let value = match init {
                    Some(init) => self.eval(init)?,
                    None => default_value(ty)?,
                };
                self.declare(scope, name, value);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(cond)?.as_int()?;
                if c != 0 {
                    self.exec_block(then_branch)
                } else if let Some(else_branch) = else_branch {
                    self.exec_block(else_branch)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let header = self.vars.len();
                let result =
                    self.exec_for(header, init.as_deref(), cond.as_ref(), step.as_ref(), body);
                self.vars.truncate(header);
                result
            }
            Stmt::While { cond, body } => {
                loop {
                    self.tick()?;
                    if self.eval(cond)?.as_int()? == 0 {
                        break;
                    }
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(_) => Ok(Flow::Return),
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Goto(label) => Ok(Flow::Goto(label)),
            Stmt::Label(_) | Stmt::Empty => Ok(Flow::Normal),
            Stmt::Block(b) => self.exec_block(b),
        }
    }

    /// Runs a `for` loop whose header scope starts at stack height `header`.
    fn exec_for(
        &mut self,
        header: usize,
        init: Option<&'a Stmt>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &'a Block,
    ) -> Result<Flow<'a>, ExecError> {
        if let Some(init) = init {
            match self.exec_stmt(init, header)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        loop {
            self.tick()?;
            if let Some(cond) = cond {
                if self.eval(cond)?.as_int()? == 0 {
                    break;
                }
            }
            match self.exec_block(body)? {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                other => return Ok(other),
            }
            if let Some(step) = step {
                self.eval(step)?;
            }
        }
        Ok(Flow::Normal)
    }

    // ---- expressions ---------------------------------------------------------

    fn eval(&mut self, expr: &Expr) -> Result<Value, ExecError> {
        match expr {
            Expr::IntLit(v) => Ok(Value::Int(*v as i32)),
            Expr::Var(name) => self.lookup(name),
            Expr::Index { base, index } => {
                let ptr = self.eval(base)?.as_ptr()?;
                let idx = self.eval(index)?.as_int()?;
                Ok(Value::Int(self.memory.read(ptr.offset_by(idx as i64))?))
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(expr)?.as_int()?;
                let out = match op {
                    UnOp::Neg => {
                        if v == i32::MIN {
                            self.memory.record_overflow(UbDetail::Negation(v));
                        }
                        v.wrapping_neg()
                    }
                    UnOp::Not => i32::from(v == 0),
                    UnOp::BitNot => !v,
                };
                Ok(Value::Int(out))
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            Expr::Assign { op, target, value } => self.eval_assign(*op, target, value),
            Expr::Call { callee, args } => self.eval_call(callee, args),
            Expr::Cast { ty, expr } => {
                let v = self.eval(expr)?;
                match (ty, v) {
                    (Type::Ptr(_), Value::Ptr(p)) => Ok(Value::Ptr(p)),
                    (Type::Int, Value::Int(i)) => Ok(Value::Int(i)),
                    (ty, v) => Err(ExecError::TypeMismatch(format!(
                        "cannot cast {} to {}",
                        v, ty
                    ))),
                }
            }
            Expr::AddrOf(inner) => match inner.as_ref() {
                Expr::Index { base, index } => {
                    let ptr = self.eval(base)?.as_ptr()?;
                    let idx = self.eval(index)?.as_int()?;
                    Ok(Value::Ptr(ptr.offset_by(idx as i64)))
                }
                Expr::Var(name) => {
                    // `&a` where `a` is already a pointer: TSVC code never
                    // takes the address of a scalar, so treat this as the
                    // pointer value itself.
                    let v = self.lookup(name)?;
                    match v {
                        Value::Ptr(p) => Ok(Value::Ptr(p)),
                        other => Err(ExecError::TypeMismatch(format!(
                            "cannot take the address of scalar `{}` = {}",
                            name, other
                        ))),
                    }
                }
                other => Err(ExecError::TypeMismatch(format!(
                    "unsupported address-of operand {:?}",
                    other
                ))),
            },
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                if self.eval(cond)?.as_int()? != 0 {
                    self.eval(then_expr)
                } else {
                    self.eval(else_expr)
                }
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value, ExecError> {
        // Short-circuit operators evaluate the right operand lazily.
        if op == BinOp::And {
            let l = self.eval(lhs)?.as_int()?;
            if l == 0 {
                return Ok(Value::Int(0));
            }
            let r = self.eval(rhs)?.as_int()?;
            return Ok(Value::Int(i32::from(r != 0)));
        }
        if op == BinOp::Or {
            let l = self.eval(lhs)?.as_int()?;
            if l != 0 {
                return Ok(Value::Int(1));
            }
            let r = self.eval(rhs)?.as_int()?;
            return Ok(Value::Int(i32::from(r != 0)));
        }

        let lv = self.eval(lhs)?;
        let rv = self.eval(rhs)?;
        // Pointer arithmetic.
        match (lv, rv, op) {
            (Value::Ptr(p), Value::Int(i), BinOp::Add) => {
                return Ok(Value::Ptr(p.offset_by(i as i64)))
            }
            (Value::Int(i), Value::Ptr(p), BinOp::Add) => {
                return Ok(Value::Ptr(p.offset_by(i as i64)))
            }
            (Value::Ptr(p), Value::Int(i), BinOp::Sub) => {
                return Ok(Value::Ptr(p.offset_by(-(i as i64))))
            }
            _ => {}
        }
        let l = lv.as_int()?;
        let r = rv.as_int()?;
        let out = match op {
            BinOp::Add => self.arith(l, r, i32::checked_add, i32::wrapping_add, "+"),
            BinOp::Sub => self.arith(l, r, i32::checked_sub, i32::wrapping_sub, "-"),
            BinOp::Mul => self.arith(l, r, i32::checked_mul, i32::wrapping_mul, "*"),
            BinOp::Div | BinOp::Rem => {
                if r == 0 {
                    let event = UbEvent {
                        kind: UbKind::DivByZero,
                        detail: UbDetail::Text(format!("{} / {}", l, r)),
                    };
                    self.memory.ub_events.push(event.clone());
                    return Err(ExecError::Ub(event));
                }
                if l == i32::MIN && r == -1 {
                    let event = UbEvent {
                        kind: UbKind::DivOverflow,
                        detail: UbDetail::Text(format!("{} / {}", l, r)),
                    };
                    self.memory.ub_events.push(event.clone());
                    return Err(ExecError::Ub(event));
                }
                if op == BinOp::Div {
                    l / r
                } else {
                    l % r
                }
            }
            BinOp::Lt => i32::from(l < r),
            BinOp::Le => i32::from(l <= r),
            BinOp::Gt => i32::from(l > r),
            BinOp::Ge => i32::from(l >= r),
            BinOp::Eq => i32::from(l == r),
            BinOp::Ne => i32::from(l != r),
            BinOp::BitAnd => l & r,
            BinOp::BitOr => l | r,
            BinOp::BitXor => l ^ r,
            BinOp::Shl | BinOp::Shr => {
                if !(0..32).contains(&r) {
                    let event = UbEvent {
                        kind: UbKind::ShiftOutOfRange,
                        detail: UbDetail::Text(format!("shift by {}", r)),
                    };
                    self.memory.ub_events.push(event.clone());
                    return Err(ExecError::Ub(event));
                }
                if op == BinOp::Shl {
                    ((l as u32) << r) as i32
                } else {
                    l >> r
                }
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        };
        Ok(Value::Int(out))
    }

    fn arith(
        &mut self,
        l: i32,
        r: i32,
        checked: impl Fn(i32, i32) -> Option<i32>,
        wrapping: impl Fn(i32, i32) -> i32,
        op: &'static str,
    ) -> i32 {
        match checked(l, r) {
            Some(v) => v,
            None => {
                self.memory
                    .record_overflow(UbDetail::Arith { lhs: l, op, rhs: r });
                wrapping(l, r)
            }
        }
    }

    fn eval_assign(
        &mut self,
        op: AssignOp,
        target: &Expr,
        value: &Expr,
    ) -> Result<Value, ExecError> {
        let new_value = match op.binop() {
            None => self.eval(value)?,
            Some(binop) => {
                // Compound assignment reads the target once, applies the
                // operator, and stores back.
                self.eval_binary(binop, target, value)?
            }
        };
        match target {
            Expr::Var(name) => {
                self.assign_var(name, new_value)?;
                Ok(new_value)
            }
            Expr::Index { base, index } => {
                let ptr = self.eval(base)?.as_ptr()?;
                let idx = self.eval(index)?.as_int()?;
                let scalar = new_value.as_int()?;
                self.memory.write(ptr.offset_by(idx as i64), scalar)?;
                Ok(new_value)
            }
            other => Err(ExecError::TypeMismatch(format!(
                "invalid assignment target {:?}",
                other
            ))),
        }
    }

    fn eval_call(&mut self, callee: &str, args: &[Expr]) -> Result<Value, ExecError> {
        match callee {
            "_mm256_loadu_si256" => {
                let ptr = self.eval(&args[0])?.as_ptr()?;
                Ok(Value::Vec(self.memory.read_vector(ptr)?))
            }
            "_mm256_storeu_si256" => {
                let ptr = self.eval(&args[0])?.as_ptr()?;
                let value = self.eval(&args[1])?.as_vec()?;
                self.memory.write_vector(ptr, value)?;
                Ok(Value::Int(0))
            }
            "_mm256_maskload_epi32" => {
                let ptr = self.eval(&args[0])?.as_ptr()?;
                let mask = self.eval(&args[1])?.as_vec()?;
                Ok(Value::Vec(self.memory.masked_read_vector(ptr, mask)?))
            }
            "_mm256_maskstore_epi32" => {
                let ptr = self.eval(&args[0])?.as_ptr()?;
                let mask = self.eval(&args[1])?.as_vec()?;
                let value = self.eval(&args[2])?.as_vec()?;
                self.memory.masked_write_vector(ptr, mask, value)?;
                Ok(Value::Int(0))
            }
            _ => {
                // Nested calls push their arguments above this call's and
                // pop them before this call reads its own.
                let base = self.simd_args.len();
                for arg in args {
                    let v = self.eval(arg)?;
                    self.simd_args.push(match v {
                        Value::Int(i) => SimdArg::Scalar(i),
                        Value::Vec(v) => SimdArg::Vector(v),
                        Value::Ptr(_) => {
                            return Err(ExecError::TypeMismatch(format!(
                                "pointer argument passed to pure intrinsic `{}`",
                                callee
                            )))
                        }
                    });
                }
                let result = eval_intrinsic(callee, &self.simd_args[base..]);
                self.simd_args.truncate(base);
                match result {
                    Ok(SimdValue::Scalar(v)) => Ok(Value::Int(v)),
                    Ok(SimdValue::Vector(v)) => Ok(Value::Vec(v)),
                    Err(_) => Err(ExecError::UnknownCall(callee.to_string())),
                }
            }
        }
    }
}

fn default_value(ty: &Type) -> Result<Value, ExecError> {
    match ty {
        Type::Int => Ok(Value::Int(0)),
        Type::M256i => Ok(Value::Vec(lv_simd::I32x8::zero())),
        other => Err(ExecError::TypeMismatch(format!(
            "cannot default-initialize a value of type {}",
            other
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;

    fn run(src: &str, args: ArgBindings) -> Result<ExecResult, ExecError> {
        let func = parse_function(src).unwrap();
        run_function(&func, &args, &ExecConfig::default())
    }

    #[test]
    fn simple_copy_loop() {
        let result = run(
            "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
            ArgBindings::new()
                .scalar(4)
                .array(vec![0; 4])
                .array(vec![10, 20, 30, 40]),
        )
        .unwrap();
        assert_eq!(result.arrays[0], vec![11, 21, 31, 41]);
        assert_eq!(result.arrays[1], vec![10, 20, 30, 40]);
    }

    #[test]
    fn s212_scalar_semantics() {
        // Figure 1(a): a[i] *= c[i]; b[i] += a[i+1] * d[i];
        let result = run(
            "void s212(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }",
            ArgBindings::new()
                .scalar(4)
                .array(vec![1, 2, 3, 4])
                .array(vec![1, 1, 1, 1])
                .array(vec![2, 2, 2, 2])
                .array(vec![3, 3, 3, 3]),
        )
        .unwrap();
        // i=0: a[0]=2, b[0]=1+a[1]*3=1+6=7 (a[1] still 2)
        // i=1: a[1]=4, b[1]=1+a[2]*3=1+9=10
        // i=2: a[2]=6, b[2]=1+a[3]*3=1+12=13
        assert_eq!(result.arrays[0], vec![2, 4, 6, 4]);
        assert_eq!(result.arrays[1], vec![7, 10, 13, 1]);
    }

    #[test]
    fn vectorized_code_executes() {
        let result = run(
            "void v(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); __m256i y = _mm256_add_epi32(x, _mm256_set1_epi32(1)); _mm256_storeu_si256((__m256i *)&a[i], y); } for (; i < n; i++) { a[i] = b[i] + 1; } }",
            ArgBindings::new()
                .scalar(11)
                .array(vec![0; 11])
                .array((0..11).collect()),
        )
        .unwrap();
        assert_eq!(result.arrays[0], (1..=11).collect::<Vec<_>>());
    }

    #[test]
    fn goto_control_flow() {
        let result = run(
            "void s278(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { if (a[i] > 0) { goto L20; } b[i] = -b[i] + d[i] * e[i]; goto L30; L20: c[i] = -c[i] + d[i] * e[i]; L30: a[i] = b[i] + c[i] * d[i]; } }",
            ArgBindings::new()
                .scalar(2)
                .array(vec![1, -1])
                .array(vec![2, 2])
                .array(vec![3, 3])
                .array(vec![4, 4])
                .array(vec![5, 5]),
        )
        .unwrap();
        // i=0: a[0] > 0, so c[0] = -3 + 20 = 17, a[0] = b[0] + c[0]*d[0] = 2 + 68 = 70
        // i=1: a[1] <= 0, so b[1] = -2 + 20 = 18, a[1] = 18 + 3*4 = 30
        assert_eq!(result.arrays[2], vec![17, 3]);
        assert_eq!(result.arrays[1], vec![2, 18]);
        assert_eq!(result.arrays[0], vec![70, 30]);
    }

    #[test]
    fn reduction_and_scalar_result() {
        let result = run(
            "void vsumr(int n, int *a, int *sum) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } sum[0] = s; }",
            ArgBindings::new()
                .scalar(5)
                .array(vec![1, 2, 3, 4, 5])
                .array(vec![0]),
        )
        .unwrap();
        assert_eq!(result.arrays[1], vec![15]);
    }

    #[test]
    fn out_of_bounds_read_is_fatal() {
        let err = run(
            "void f(int n, int *a) { a[0] = a[n]; }",
            ArgBindings::new().scalar(4).array(vec![0; 4]),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Ub(_)));
    }

    #[test]
    fn division_by_zero_is_fatal() {
        let err = run(
            "void f(int n, int *a) { a[0] = 1 / n; }",
            ArgBindings::new().scalar(0).array(vec![0; 1]),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Ub(e) if e.kind == UbKind::DivByZero));
    }

    #[test]
    fn signed_overflow_wraps_and_is_recorded() {
        let result = run(
            "void f(int n, int *a) { a[0] = n * n; }",
            ArgBindings::new().scalar(i32::MAX).array(vec![0; 1]),
        )
        .unwrap();
        assert!(result.report.had_signed_overflow());
        assert_eq!(result.arrays[0][0], i32::MAX.wrapping_mul(i32::MAX));
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let func = parse_function("void f(int n) { while (1) { n = n + 0; } }").unwrap();
        let err = run_function(
            &func,
            &ArgBindings::new().scalar(0),
            &ExecConfig { max_steps: 1000 },
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::StepLimitExceeded { .. }));
    }

    #[test]
    fn missing_argument_is_reported() {
        let err = run(
            "void f(int n, int *a) { a[0] = n; }",
            ArgBindings::new().scalar(1),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::MissingArgument(name) if name == "a"));
    }

    #[test]
    fn arguments_bind_by_position_not_by_name() {
        let args = ArgBindings::new()
            .scalar(3)
            .array(vec![0; 3])
            .array(vec![1, 2, 3]);
        let named = run(
            "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] * 2; } }",
            args.clone(),
        )
        .unwrap();
        // The same kernel with its arrays renamed and swapped in the
        // signature: the first array argument is now the one it reads.
        let swapped = run(
            "void f(int m, int *b, int *a) { for (int i = 0; i < m; i++) { a[i] = b[i] * 2; } }",
            args,
        )
        .unwrap();
        assert_eq!(named.arrays, vec![vec![2, 4, 6], vec![1, 2, 3]]);
        assert_eq!(swapped.arrays, vec![vec![0; 3], vec![0; 3]]);
    }

    #[test]
    fn argument_kind_and_count_mismatches_are_reported() {
        let src = "void f(int n, int *a) { a[0] = n; }";
        let swapped = run(src, ArgBindings::new().array(vec![0]).scalar(1)).unwrap_err();
        assert_eq!(
            swapped.to_string(),
            "runtime type mismatch: parameter 1 `n` of type int is bound to an array"
        );
        let extra = run(src, ArgBindings::new().scalar(1).array(vec![0]).scalar(2)).unwrap_err();
        assert!(matches!(extra, ExecError::TypeMismatch(_)), "{extra}");
    }

    #[test]
    fn short_circuit_avoids_division_by_zero() {
        let result = run(
            "void f(int n, int *a) { if (n != 0 && 10 / n > 1) { a[0] = 1; } else { a[0] = 2; } }",
            ArgBindings::new().scalar(0).array(vec![0]),
        )
        .unwrap();
        assert_eq!(result.arrays[0], vec![2]);
    }

    #[test]
    fn break_and_continue() {
        let result = run(
            "void f(int n, int *a) { for (int i = 0; i < n; i++) { if (i == 2) { continue; } if (i == 4) { break; } a[i] = 1; } }",
            ArgBindings::new().scalar(8).array(vec![0; 8]),
        )
        .unwrap();
        assert_eq!(result.arrays[0], vec![1, 1, 0, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn ternary_and_scalars_in_result() {
        let result = run(
            "void f(int n, int *a) { int m = n > 5 ? 1 : 0; a[0] = m; }",
            ArgBindings::new().scalar(9).array(vec![0]),
        )
        .unwrap();
        assert_eq!(result.arrays[0], vec![1]);
        assert_eq!(result.scalars, vec![9]);
    }

    #[test]
    fn inner_declarations_shadow_and_go_out_of_scope() {
        // `x` is shadowed in the block, the loop header's `i` and the body's
        // `t` end with their scopes, and `y` is redeclared in one block.
        let result = run(
            "void f(int n, int *a) { int x = 1; { int x = 2; a[0] = x; } a[1] = x; for (int i = 0; i < n; i++) { int t = i * 10; a[2] += t; } int i = 7; a[3] = i; int y = 3; int y = 4; a[4] = y; }",
            ArgBindings::new().scalar(3).array(vec![0; 5]),
        )
        .unwrap();
        assert_eq!(result.arrays[0], vec![2, 1, 30, 7, 4]);
        assert_eq!(result.scalars, vec![3]);
    }

    #[test]
    fn nested_intrinsic_calls_keep_their_own_arguments() {
        let result = run(
            "void f(int n, int *a) { __m256i v = _mm256_add_epi32(_mm256_set1_epi32(n), _mm256_sub_epi32(_mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8), _mm256_set1_epi32(1))); _mm256_storeu_si256((__m256i *)&a[0], v); }",
            ArgBindings::new().scalar(10).array(vec![0; 8]),
        )
        .unwrap();
        assert_eq!(result.arrays[0], (10..18).collect::<Vec<_>>());
    }

    #[test]
    fn masked_intrinsics_execute() {
        let result = run(
            "void f(int n, int *a, int *b) { __m256i mask = _mm256_setr_epi32(-1, -1, -1, -1, 0, 0, 0, 0); __m256i v = _mm256_maskload_epi32(b, mask); _mm256_maskstore_epi32(a, mask, v); }",
            ArgBindings::new()
                .scalar(4)
                .array(vec![9; 4])
                .array(vec![1, 2, 3, 4]),
        )
        .unwrap();
        assert_eq!(result.arrays[0], vec![1, 2, 3, 4]);
    }
}
