//! C-level unrolling (Section 3.2 of the paper).
//!
//! Instead of letting the verifier unroll the scalar loop (which keeps a
//! loop-termination check per iteration), the scalar program is rewritten at
//! the source level: the loop is replaced by `m` copies of its body with the
//! induction-variable step appended to each copy. Because verification is
//! restricted to trip counts that are multiples of the vectorization width,
//! the intermediate termination checks can be dropped entirely, which is
//! what makes the resulting verification conditions so much cheaper.
//!
//! The transformation performs the three fix-ups the paper lists:
//! 1. `break` becomes `return`;
//! 2. `goto` labels are given a fresh suffix per unrolled copy;
//! 3. duplicate local declarations become plain assignments.

use lv_analysis::{loop_nest, StepKind};
use lv_cir::ast::{AssignOp, Block, Expr, Function, Stmt};
use std::collections::HashSet;
use std::fmt;

/// Why the C-level unroller refused to transform a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CUnrollError {
    /// Human-readable reason.
    pub reason: String,
}

impl CUnrollError {
    fn new(reason: impl Into<String>) -> CUnrollError {
        CUnrollError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CUnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C-level unrolling failed: {}", self.reason)
    }
}

impl std::error::Error for CUnrollError {}

/// Unrolls the (innermost) loop of `func` by `factor`, producing a function
/// whose unrolled region is straight-line code.
///
/// For nested kernels only the inner loop is unrolled; the outer loop is kept
/// as-is (the verifier later executes it with a concrete bound).
///
/// # Errors
///
/// Returns [`CUnrollError`] if the function has no canonical loop, the loop
/// step is not a constant, or `factor` is not positive.
pub fn c_unroll(func: &Function, factor: usize) -> Result<Function, CUnrollError> {
    if factor == 0 {
        return Err(CUnrollError::new("unroll factor must be positive"));
    }
    let nest = loop_nest(func);
    if nest.loops.is_empty() {
        return Err(CUnrollError::new("the kernel has no canonical for-loop"));
    }
    let mut out = func.clone();
    let nested = nest.is_nested();
    out.body = unroll_in_block(&func.body, factor, nested, &mut 0)?;
    Ok(out)
}

/// Unrolls the first canonical loop found in `block`. When `skip_outer` is
/// true the outermost loop is kept and its body is processed instead.
fn unroll_in_block(
    block: &Block,
    factor: usize,
    skip_outer: bool,
    loop_counter: &mut usize,
) -> Result<Block, CUnrollError> {
    let mut out = Vec::with_capacity(block.stmts.len());
    let mut done = false;
    for stmt in &block.stmts {
        if !done && stmt.is_loop() {
            if skip_outer {
                // Keep the outer loop, unroll inside its body.
                if let Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                } = stmt
                {
                    let new_body = unroll_in_block(body, factor, false, loop_counter)?;
                    out.push(Stmt::For {
                        init: init.clone(),
                        cond: cond.clone(),
                        step: step.clone(),
                        body: new_body,
                    });
                    done = true;
                    continue;
                }
            }
            let unrolled = unroll_loop(stmt, factor, loop_counter)?;
            out.extend(unrolled);
            done = true;
            continue;
        }
        out.push(stmt.clone());
    }
    Ok(Block::from_stmts(out))
}

fn unroll_loop(
    stmt: &Stmt,
    factor: usize,
    loop_counter: &mut usize,
) -> Result<Vec<Stmt>, CUnrollError> {
    let canonical = lv_analysis::canonicalize_for(stmt)
        .ok_or_else(|| CUnrollError::new("the loop is not in canonical form"))?;
    let step = match canonical.step {
        StepKind::Constant(c) => c,
        StepKind::Symbolic(_) => {
            return Err(CUnrollError::new("the loop step is not a constant literal"))
        }
    };
    *loop_counter += 1;
    let loop_id = *loop_counter;

    let mut out = Vec::new();
    // Initialize the induction variable.
    if canonical.declares_iv {
        out.push(Stmt::Decl {
            ty: lv_cir::Type::Int,
            name: canonical.iv.clone(),
            init: Some(canonical.start.clone()),
        });
    } else {
        out.push(Stmt::Expr(Expr::assign(
            AssignOp::Assign,
            Expr::var(&canonical.iv),
            canonical.start.clone(),
        )));
    }

    let mut declared: HashSet<String> = HashSet::new();
    for copy in 0..factor {
        let mut body = canonical.body.clone();
        body = rewrite_copy(body, copy, loop_id, &mut declared);
        out.extend(body.stmts);
        // Advance the induction variable after every copy.
        out.push(Stmt::Expr(Expr::assign(
            AssignOp::AddAssign,
            Expr::var(&canonical.iv),
            Expr::lit(step),
        )));
    }
    Ok(out)
}

/// Applies the paper's three rewrites to one unrolled copy of the loop body.
fn rewrite_copy(
    block: Block,
    copy: usize,
    loop_id: usize,
    declared: &mut HashSet<String>,
) -> Block {
    let stmts = block
        .stmts
        .into_iter()
        .map(|s| rewrite_stmt(s, copy, loop_id, declared))
        .collect();
    Block::from_stmts(stmts)
}

fn rewrite_stmt(stmt: Stmt, copy: usize, loop_id: usize, declared: &mut HashSet<String>) -> Stmt {
    match stmt {
        // (1) break → return.
        Stmt::Break => Stmt::Return(None),
        // (2) unique labels per copy.
        Stmt::Label(name) => Stmt::Label(format!("{}_u{}_{}", name, loop_id, copy)),
        Stmt::Goto(name) => Stmt::Goto(format!("{}_u{}_{}", name, loop_id, copy)),
        // (3) duplicate declarations become assignments.
        Stmt::Decl { ty, name, init } => {
            if declared.insert(name.clone()) {
                Stmt::Decl { ty, name, init }
            } else {
                match init {
                    Some(init) => Stmt::Expr(Expr::assign(AssignOp::Assign, Expr::var(name), init)),
                    None => Stmt::Empty,
                }
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond,
            then_branch: rewrite_copy(then_branch, copy, loop_id, declared),
            else_branch: else_branch.map(|b| rewrite_copy(b, copy, loop_id, declared)),
        },
        Stmt::Block(b) => Stmt::Block(rewrite_copy(b, copy, loop_id, declared)),
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => Stmt::For {
            init,
            cond,
            step,
            body: rewrite_copy(body, copy, loop_id, declared),
        },
        Stmt::While { cond, body } => Stmt::While {
            cond,
            body: rewrite_copy(body, copy, loop_id, declared),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::{parse_function, print_function};
    use lv_interp::{run_function, ArgBindings, ExecConfig};

    fn unrolled(src: &str, factor: usize) -> Function {
        c_unroll(&parse_function(src).unwrap(), factor).unwrap()
    }

    #[test]
    fn unrolled_code_has_no_inner_loop() {
        let f = unrolled(
            "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
            8,
        );
        assert!(f.top_level_loops().is_empty());
        let printed = print_function(&f);
        assert_eq!(printed.matches("i += 1;").count(), 8, "{}", printed);
    }

    #[test]
    fn unrolled_code_computes_the_same_result() {
        let src = "void s212(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }";
        let original = parse_function(src).unwrap();
        let unrolled_fn = unrolled(src, 8);
        // n - 1 iterations must be a multiple of 8 for the unrolled version
        // to cover the same range: use n = 9.
        let args = ArgBindings::new()
            .scalar(9)
            .array((0..16).collect())
            .array((0..16).rev().collect())
            .array(vec![3; 16])
            .array(vec![5; 16]);
        let r1 = run_function(&original, &args, &ExecConfig::default()).unwrap();
        let r2 = run_function(&unrolled_fn, &args, &ExecConfig::default()).unwrap();
        assert_eq!(r1.arrays, r2.arrays);
    }

    #[test]
    fn break_becomes_return() {
        let f = unrolled(
            "void f(int n, int *a) { for (int i = 0; i < n; i++) { if (a[i] == 0) { break; } a[i] = 1; } }",
            4,
        );
        let printed = print_function(&f);
        assert!(!printed.contains("break"), "{}", printed);
        assert_eq!(printed.matches("return;").count(), 4, "{}", printed);
    }

    #[test]
    fn labels_are_renamed_per_copy() {
        let f = unrolled(
            "void f(int n, int *a, int *d, int *e, int *b, int *c) { for (int i = 0; i < n; i++) { if (a[i] > 0) { goto L20; } b[i] = -b[i] + d[i] * e[i]; goto L30; L20: c[i] = -c[i] + d[i] * e[i]; L30: a[i] = b[i] + c[i] * d[i]; } }",
            2,
        );
        let printed = print_function(&f);
        assert!(printed.contains("L20_u1_0"), "{}", printed);
        assert!(printed.contains("L20_u1_1"), "{}", printed);
        assert!(printed.contains("goto L30_u1_1"), "{}", printed);
        // The unrolled function must still type check (labels resolve).
        assert!(lv_cir::type_check(&f).is_ok());
    }

    #[test]
    fn duplicate_declarations_are_removed() {
        let f = unrolled(
            "void f(int n, int *a) { for (int i = 0; i < n; i++) { int t = a[i]; a[i] = t * 2; } }",
            4,
        );
        let printed = print_function(&f);
        assert_eq!(printed.matches("int t").count(), 1, "{}", printed);
        assert_eq!(printed.matches("t = ").count(), 4, "{}", printed);
        assert!(lv_cir::type_check(&f).is_ok());
    }

    #[test]
    fn nested_loops_unroll_only_the_inner_loop() {
        let f = unrolled(
            "void f(int n, int *a) { for (int j = 0; j < n; j++) { for (int i = 0; i < n; i++) { a[i] = a[i] + 1; } } }",
            8,
        );
        // The outer loop survives, the inner one is gone.
        assert_eq!(f.top_level_loops().len(), 1);
        let printed = print_function(&f);
        assert_eq!(printed.matches("for (").count(), 1, "{}", printed);
    }

    #[test]
    fn errors_on_missing_or_symbolic_loops() {
        assert!(c_unroll(
            &parse_function("void f(int n, int *a) { a[0] = n; }").unwrap(),
            8
        )
        .is_err());
        assert!(c_unroll(
            &parse_function(
                "void f(int n, int k, int *a) { for (int i = 0; i < n; i += k) { a[i] = 0; } }"
            )
            .unwrap(),
            8
        )
        .is_err());
        assert!(c_unroll(
            &parse_function("void f(int n, int *a) { for (int i = 0; i < n; i++) { a[i] = 0; } }")
                .unwrap(),
            0
        )
        .is_err());
    }
}
