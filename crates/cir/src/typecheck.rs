//! A simple type checker for the mini-C subset.
//!
//! Type checking plays the role of "does it compile" in the pipeline: the
//! paper reports candidates under a *Cannot compile* row in Table 2, and the
//! multi-agent FSM feeds compile errors back to the vectorizer agent. A
//! candidate that references unknown variables, calls an unknown intrinsic or
//! mixes `__m256i` and `int` values is rejected here with a [`TypeError`].

use crate::ast::{BinOp, Block, Expr, Function, Stmt, Type, UnOp};
use crate::error::TypeError;
use crate::intrinsics::{intrinsic_sig, looks_like_intrinsic};
use std::collections::HashMap;
use std::fmt;

/// The result of type checking a function: the type of every named variable
/// (parameters and locals). When a name is declared in several scopes the
/// innermost declaration seen last wins; the TSVC subset does not rely on
/// shadowing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypeInfo {
    /// Variable name to type.
    pub vars: HashMap<String, Type>,
    /// Labels declared in the function body.
    pub labels: Vec<String>,
}

impl TypeInfo {
    /// The type of a variable, if it was declared anywhere in the function.
    pub fn var_type(&self, name: &str) -> Option<&Type> {
        self.vars.get(name)
    }

    /// Names of all `__m256i` locals.
    pub fn vector_vars(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .vars
            .iter()
            .filter(|(_, ty)| **ty == Type::M256i)
            .map(|(name, _)| name.as_str())
            .collect();
        v.sort_unstable();
        v
    }
}

/// Type checks a function definition.
///
/// # Errors
///
/// Returns a [`TypeError`] describing the first problem found: use of an
/// undeclared variable, an unknown function or intrinsic, wrong argument
/// counts or types, assignment type mismatches, invalid operand types, or a
/// `goto` to an undefined label.
pub fn type_check(func: &Function) -> Result<TypeInfo, TypeError> {
    let mut checker = Checker::new(func, Some(TypeInfo::default()));
    checker
        .check_function()
        .map_err(|e| e.in_function(&func.name))?;
    let mut info = checker.info.unwrap_or_default();
    info.labels = checker.labels.iter().map(|l| l.to_string()).collect();
    Ok(info)
}

/// [`type_check`] without the [`TypeInfo`]: the same verdict and the same
/// error, but a function that type checks costs no allocation per variable
/// or label.
///
/// # Errors
///
/// The [`TypeError`] that [`type_check`] returns.
pub fn check_types(func: &Function) -> Result<(), TypeError> {
    Checker::new(func, None)
        .check_function()
        .map_err(|e| e.in_function(&func.name))
}

/// Convenience wrapper: returns `true` if the function type checks.
pub fn compiles(func: &Function) -> bool {
    check_types(func).is_ok()
}

/// A mini-C type as the checker computes it: a base type under `ptrs`
/// levels of pointer. It is `Copy`, so typing a pointer-valued expression —
/// a pointer variable, `&a[i]`, a `(__m256i *)` cast — allocates nothing,
/// where building the AST's [`Type::Ptr`] boxes its pointee. It displays
/// exactly as the [`Type`] it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ty {
    base: Base,
    ptrs: u32,
}

/// The non-pointer type at the bottom of a [`Ty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    Void,
    Int,
    M256i,
}

impl Ty {
    pub(crate) const VOID: Ty = Ty::base(Base::Void);
    pub(crate) const INT: Ty = Ty::base(Base::Int);
    pub(crate) const M256I: Ty = Ty::base(Base::M256i);

    const fn base(base: Base) -> Ty {
        Ty { base, ptrs: 0 }
    }

    /// The checker's form of an AST type.
    pub(crate) fn of(ty: &Type) -> Ty {
        match ty {
            Type::Void => Ty::VOID,
            Type::Int => Ty::INT,
            Type::M256i => Ty::M256I,
            Type::Ptr(inner) => Ty::of(inner).ptr(),
        }
    }

    /// The AST type this stands for.
    pub(crate) fn to_type(self) -> Type {
        let base = match self.base {
            Base::Void => Type::Void,
            Base::Int => Type::Int,
            Base::M256i => Type::M256i,
        };
        (0..self.ptrs).fold(base, |inner, _| Type::Ptr(Box::new(inner)))
    }

    /// A pointer to this type.
    pub(crate) const fn ptr(self) -> Ty {
        Ty {
            base: self.base,
            ptrs: self.ptrs + 1,
        }
    }

    pub(crate) fn is_ptr(self) -> bool {
        self.ptrs > 0
    }

    fn pointee(self) -> Option<Ty> {
        self.ptrs.checked_sub(1).map(|ptrs| Ty {
            base: self.base,
            ptrs,
        })
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.base {
            Base::Void => "void",
            Base::Int => "int",
            Base::M256i => "__m256i",
        })?;
        for _ in 0..self.ptrs {
            f.write_str(" *")?;
        }
        Ok(())
    }
}

struct Checker<'a> {
    func: &'a Function,
    /// Every variable in scope, outermost first, as one flat stack of names
    /// and types borrowed from the AST. A block truncates it back to its
    /// entry height on exit, and a lookup scans down from the top, so the
    /// innermost (and, within a block, the latest) declaration wins.
    vars: Vec<(&'a str, &'a Type)>,
    /// Every label declared in the body, in order.
    labels: Vec<&'a str>,
    /// The variable types, when the caller asked for them.
    info: Option<TypeInfo>,
}

impl<'a> Checker<'a> {
    fn new(func: &'a Function, info: Option<TypeInfo>) -> Checker<'a> {
        Checker {
            func,
            vars: Vec::new(),
            labels: Vec::new(),
            info,
        }
    }

    fn declare(&mut self, name: &'a str, ty: &'a Type) {
        if let Some(info) = &mut self.info {
            info.vars.insert(name.to_string(), ty.clone());
        }
        self.vars.push((name, ty));
    }

    fn lookup(&self, name: &str) -> Option<Ty> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, ty)| Ty::of(ty))
    }

    fn check_function(&mut self) -> Result<(), TypeError> {
        let func = self.func;
        for param in &func.params {
            if param.ty == Type::Void {
                return Err(TypeError::new(format!(
                    "parameter `{}` cannot have type void",
                    param.name
                )));
            }
            self.declare(&param.name, &param.ty);
        }
        self.collect_labels(&func.body);
        self.check_block(&func.body)?;
        self.check_gotos(&func.body)?;
        Ok(())
    }

    fn collect_labels(&mut self, block: &'a Block) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Label(name) => self.labels.push(name),
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.collect_labels(then_branch);
                    if let Some(e) = else_branch {
                        self.collect_labels(e);
                    }
                }
                Stmt::For { body, .. } | Stmt::While { body, .. } => self.collect_labels(body),
                Stmt::Block(b) => self.collect_labels(b),
                _ => {}
            }
        }
    }

    fn check_gotos(&self, block: &Block) -> Result<(), TypeError> {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Goto(label) if !self.labels.contains(&label.as_str()) => {
                    return Err(TypeError::new(format!(
                        "goto to undefined label `{}`",
                        label
                    )));
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.check_gotos(then_branch)?;
                    if let Some(e) = else_branch {
                        self.check_gotos(e)?;
                    }
                }
                Stmt::For { body, .. } | Stmt::While { body, .. } => self.check_gotos(body)?,
                Stmt::Block(b) => self.check_gotos(b)?,
                _ => {}
            }
        }
        Ok(())
    }

    fn check_block(&mut self, block: &'a Block) -> Result<(), TypeError> {
        let scope = self.vars.len();
        for stmt in &block.stmts {
            self.check_stmt(stmt)?;
        }
        self.vars.truncate(scope);
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &'a Stmt) -> Result<(), TypeError> {
        match stmt {
            Stmt::Decl { ty, name, init } => {
                if *ty == Type::Void {
                    return Err(TypeError::new(format!(
                        "variable `{}` cannot have type void",
                        name
                    )));
                }
                if let Some(init) = init {
                    let init_ty = self.check_expr(init)?;
                    if !assignable(Ty::of(ty), init_ty) {
                        return Err(TypeError::new(format!(
                            "cannot initialize `{}` of type {} with a value of type {}",
                            name, ty, init_ty
                        )));
                    }
                }
                self.declare(name, ty);
                Ok(())
            }
            Stmt::Expr(e) => {
                self.check_expr(e)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond_ty = self.check_expr(cond)?;
                require_scalar_condition(cond_ty)?;
                self.check_block(then_branch)?;
                if let Some(else_branch) = else_branch {
                    self.check_block(else_branch)?;
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let header = self.vars.len();
                if let Some(init) = init {
                    self.check_stmt(init)?;
                }
                if let Some(cond) = cond {
                    let cond_ty = self.check_expr(cond)?;
                    require_scalar_condition(cond_ty)?;
                }
                if let Some(step) = step {
                    self.check_expr(step)?;
                }
                self.check_block(body)?;
                self.vars.truncate(header);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let cond_ty = self.check_expr(cond)?;
                require_scalar_condition(cond_ty)?;
                self.check_block(body)
            }
            Stmt::Return(None) => Ok(()),
            Stmt::Return(Some(e)) => {
                let ty = self.check_expr(e)?;
                if self.func.ret == Type::Void {
                    return Err(TypeError::new(format!(
                        "void function returns a value of type {}",
                        ty
                    )));
                }
                Ok(())
            }
            Stmt::Break | Stmt::Continue | Stmt::Goto(_) | Stmt::Label(_) | Stmt::Empty => Ok(()),
            Stmt::Block(b) => self.check_block(b),
        }
    }

    fn check_expr(&mut self, expr: &Expr) -> Result<Ty, TypeError> {
        match expr {
            Expr::IntLit(_) => Ok(Ty::INT),
            Expr::Var(name) => self
                .lookup(name)
                .ok_or_else(|| TypeError::new(format!("use of undeclared variable `{}`", name))),
            Expr::Index { base, index } => {
                let base_ty = self.check_expr(base)?;
                let index_ty = self.check_expr(index)?;
                if index_ty != Ty::INT {
                    return Err(TypeError::new(format!(
                        "array index must be int, found {}",
                        index_ty
                    )));
                }
                match base_ty.pointee() {
                    Some(pointee) => Ok(pointee),
                    None => Err(TypeError::new(format!(
                        "cannot index a value of type {}",
                        base_ty
                    ))),
                }
            }
            Expr::Unary { op, expr } => {
                let ty = self.check_expr(expr)?;
                match op {
                    UnOp::Neg | UnOp::Not | UnOp::BitNot => {
                        if ty != Ty::INT {
                            return Err(TypeError::new(format!(
                                "unary `{}` requires an int operand, found {}",
                                op.symbol(),
                                ty
                            )));
                        }
                        Ok(Ty::INT)
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(lhs)?;
                let rt = self.check_expr(rhs)?;
                self.binary_type(*op, lt, rt)
            }
            Expr::Assign { op, target, value } => {
                let target_ty = self.check_lvalue(target)?;
                let value_ty = self.check_expr(value)?;
                if let Some(binop) = op.binop() {
                    // Compound assignment: target op= value requires target (op) value to be valid.
                    let result = self.binary_type(binop, target_ty, value_ty)?;
                    if !assignable(target_ty, result) {
                        return Err(TypeError::new(format!(
                            "cannot assign a value of type {} to a target of type {}",
                            result, target_ty
                        )));
                    }
                } else if !assignable(target_ty, value_ty) {
                    return Err(TypeError::new(format!(
                        "cannot assign a value of type {} to a target of type {}",
                        value_ty, target_ty
                    )));
                }
                Ok(target_ty)
            }
            Expr::Call { callee, args } => self.check_call(callee, args),
            Expr::Cast { ty, expr } => {
                let from = self.check_expr(expr)?;
                let to = Ty::of(ty);
                match (to, from) {
                    // Pointer-to-pointer casts (the `(__m256i *)&a[i]` idiom).
                    _ if to.is_ptr() && from.is_ptr() => Ok(to),
                    // int casts are no-ops in this subset.
                    (Ty::INT, Ty::INT) => Ok(Ty::INT),
                    _ => Err(TypeError::new(format!(
                        "unsupported cast from {} to {}",
                        from, ty
                    ))),
                }
            }
            Expr::AddrOf(inner) => Ok(self.check_lvalue(inner)?.ptr()),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let cond_ty = self.check_expr(cond)?;
                require_scalar_condition(cond_ty)?;
                let t = self.check_expr(then_expr)?;
                let e = self.check_expr(else_expr)?;
                if t != e {
                    return Err(TypeError::new(format!(
                        "ternary branches have different types: {} and {}",
                        t, e
                    )));
                }
                Ok(t)
            }
        }
    }

    fn check_lvalue(&mut self, expr: &Expr) -> Result<Ty, TypeError> {
        match expr {
            Expr::Var(_) | Expr::Index { .. } => self.check_expr(expr),
            other => Err(TypeError::new(format!(
                "expression `{}` is not assignable",
                crate::printer::print_expr(other)
            ))),
        }
    }

    fn check_call(&mut self, callee: &str, args: &[Expr]) -> Result<Ty, TypeError> {
        let Some(sig) = intrinsic_sig(callee) else {
            if looks_like_intrinsic(callee) {
                return Err(TypeError::new(format!(
                    "call to unsupported intrinsic `{}`",
                    callee
                )));
            }
            return Err(TypeError::new(format!(
                "call to unknown function `{}`",
                callee
            )));
        };
        if args.len() != sig.params.len() {
            return Err(TypeError::new(format!(
                "`{}` expects {} arguments, found {}",
                callee,
                sig.params.len(),
                args.len()
            )));
        }
        for (i, (arg, slot)) in args.iter().zip(sig.params.iter()).enumerate() {
            let ty = self.check_expr(arg)?;
            if !slot.accepts_ty(ty) {
                return Err(TypeError::new(format!(
                    "argument {} of `{}` has type {}, which is not accepted",
                    i + 1,
                    callee,
                    ty
                )));
            }
        }
        Ok(sig.ret.result_ty())
    }

    fn binary_type(&self, op: BinOp, lhs: Ty, rhs: Ty) -> Result<Ty, TypeError> {
        match (lhs, rhs) {
            (Ty::INT, Ty::INT) => Ok(Ty::INT),
            // Pointer arithmetic: `a + i`, `i + a`, `a - i` produce a pointer.
            (_, Ty::INT) if lhs.is_ptr() && matches!(op, BinOp::Add | BinOp::Sub) => Ok(lhs),
            (Ty::INT, _) if rhs.is_ptr() && op == BinOp::Add => Ok(rhs),
            _ => Err(TypeError::new(format!(
                "invalid operands to `{}`: {} and {} (vector values must use intrinsics)",
                op.symbol(),
                lhs,
                rhs
            ))),
        }
    }
}

fn assignable(target: Ty, value: Ty) -> bool {
    match (target.pointee(), value.pointee()) {
        (Some(a), Some(b)) => a == b || a == Ty::M256I || b == Ty::M256I,
        (None, None) => target == value && target != Ty::VOID,
        _ => false,
    }
}

fn require_scalar_condition(ty: Ty) -> Result<(), TypeError> {
    if ty == Ty::INT {
        Ok(())
    } else {
        Err(TypeError::new(format!(
            "condition must be int, found {}",
            ty
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function;

    fn check(src: &str) -> Result<TypeInfo, TypeError> {
        type_check(&parse_function(src).unwrap())
    }

    #[test]
    fn accepts_scalar_kernel() {
        let info = check(
            "void s212(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }",
        )
        .unwrap();
        assert_eq!(info.var_type("a"), Some(&Type::int_ptr()));
        assert_eq!(info.var_type("i"), Some(&Type::Int));
    }

    #[test]
    fn accepts_vectorized_kernel() {
        let info = check(
            "void v(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); __m256i y = _mm256_add_epi32(x, _mm256_set1_epi32(1)); _mm256_storeu_si256((__m256i *)&a[i], y); } for (; i < n; i++) { a[i] = b[i] + 1; } }",
        )
        .unwrap();
        assert_eq!(info.vector_vars(), vec!["x", "y"]);
    }

    #[test]
    fn rejects_undeclared_variable() {
        let err = check("void f(int n) { q = 1; }").unwrap_err();
        assert!(err.to_string().contains("undeclared variable `q`"));
    }

    #[test]
    fn rejects_unknown_function_and_intrinsic() {
        let err = check("void f(int n, int *a) { a[0] = foo(n); }").unwrap_err();
        assert!(err.to_string().contains("unknown function"));
        let err = check(
            "void f(int n, int *a) { __m256i x = _mm256_dpbusd_epi32(_mm256_setzero_si256(), _mm256_setzero_si256()); }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unsupported intrinsic"));
    }

    #[test]
    fn rejects_wrong_arity() {
        let err = check("void f(int *a) { __m256i x = _mm256_add_epi32(_mm256_setzero_si256()); }")
            .unwrap_err();
        assert!(err.to_string().contains("expects 2 arguments"));
    }

    #[test]
    fn rejects_mixing_vector_and_scalar() {
        let err = check("void f(int n, int *a) { __m256i x = _mm256_set1_epi32(1); int y = x; }")
            .unwrap_err();
        assert!(err.to_string().contains("cannot initialize"));
        let err = check("void f(int n) { __m256i x = _mm256_set1_epi32(1); __m256i y = x + x; }")
            .unwrap_err();
        assert!(err.to_string().contains("invalid operands"));
    }

    #[test]
    fn rejects_indexing_scalars() {
        let err = check("void f(int n) { n[0] = 1; }").unwrap_err();
        assert!(err.to_string().contains("cannot index"));
    }

    #[test]
    fn rejects_goto_undefined_label() {
        let err = check("void f(int n) { goto L99; }").unwrap_err();
        assert!(err.to_string().contains("undefined label"));
    }

    #[test]
    fn accepts_goto_with_label() {
        assert!(check("void f(int n, int *a) { for (int i = 0; i < n; i++) { if (a[i] > 0) { goto L1; } a[i] = 1; L1: a[i] = 2; } }").is_ok());
    }

    #[test]
    fn rejects_vector_condition() {
        let err = check("void f(int n) { __m256i x = _mm256_set1_epi32(1); if (x) { n = 1; } }")
            .unwrap_err();
        assert!(err.to_string().contains("condition must be int"));
    }

    #[test]
    fn pointer_arithmetic_is_allowed() {
        assert!(check(
            "void f(int n, int *a, int *b) { for (int i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)(b + i)); _mm256_storeu_si256((__m256i *)(a + i), x); } }"
        )
        .is_ok());
    }

    #[test]
    fn void_return_with_value_rejected() {
        let err = check("void f(int n) { return n; }").unwrap_err();
        assert!(err.to_string().contains("void function returns"));
    }

    #[test]
    fn compiles_helper() {
        let f = parse_function("void f(int n, int *a) { a[0] = n; }").unwrap();
        assert!(compiles(&f));
    }
}
