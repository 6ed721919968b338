//! Pretty printer: turns the AST back into compilable C-like source.
//!
//! The printer is used to render vectorized candidates produced by the agents
//! (so that transcripts look like the paper's figures) and to round-trip
//! programs in tests. Printing then re-parsing yields a structurally equal
//! AST; this invariant is checked with property tests in the crate root.
//!
//! The service client prints both functions of every job it submits, so
//! printing is on a warm round trip's path. [`print_function_into`] appends
//! to a buffer the caller owns and reuses; [`print_function`] is the same
//! printer writing into a fresh `String`. No `fmt` machinery runs on the
//! way: types, operators, identifiers and keywords are pushed as string
//! slices and integer literals through a digit loop, so printing into a
//! buffer with room allocates nothing (`tests/printer_alloc.rs`), and the
//! printed bytes are pinned by the workspace's `tests/printer_digest.rs`.

use crate::ast::{Block, Expr, Function, Program, Stmt, Type};

/// Renders a whole program as C source, including the `immintrin.h` include
/// when any function references `__m256i` or an intrinsic.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    if program.functions.iter().any(uses_vectors) {
        out.push_str("#include <immintrin.h>\n\n");
    }
    for (i, func) in program.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_function_into(func, &mut out);
    }
    out
}

/// The first capacity [`print_function`] gives its output: 96% of the
/// printed kernels and candidates pinned by `tests/printer_digest.rs` fit
/// (median 338 bytes, largest 1,382), so most printings allocate once.
const PRINT_CAPACITY: usize = 1024;

/// Renders a single function definition as C source.
pub fn print_function(func: &Function) -> String {
    let mut out = String::with_capacity(PRINT_CAPACITY);
    print_function_into(func, &mut out);
    out
}

/// Appends the C source of a function definition to `out`: the bytes
/// [`print_function`] returns, with no allocation beyond `out`'s growth.
pub fn print_function_into(func: &Function, out: &mut String) {
    Printer { out, indent: 0 }.function(func);
}

/// Renders a single statement (used in diagnostics and agent transcripts).
pub fn print_stmt(stmt: &Stmt) -> String {
    let mut out = String::new();
    Printer {
        out: &mut out,
        indent: 0,
    }
    .stmt(stmt);
    out.truncate(out.trim_end().len());
    out
}

/// Renders a single expression.
pub fn print_expr(expr: &Expr) -> String {
    let mut out = String::new();
    Printer {
        out: &mut out,
        indent: 0,
    }
    .expr(expr, 0);
    out
}

/// Returns `true` if the function mentions `__m256i` or calls an intrinsic.
fn uses_vectors(func: &Function) -> bool {
    fn block_uses(block: &Block) -> bool {
        block.stmts.iter().any(stmt_uses)
    }
    fn stmt_uses(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::Decl { ty, init, .. } => {
                *ty == Type::M256i
                    || matches!(ty, Type::Ptr(inner) if **inner == Type::M256i)
                    || init.as_ref().is_some_and(expr_uses)
            }
            Stmt::Expr(e) => expr_uses(e),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                expr_uses(cond)
                    || block_uses(then_branch)
                    || else_branch.as_ref().is_some_and(block_uses)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                init.as_deref().is_some_and(stmt_uses)
                    || cond.as_ref().is_some_and(expr_uses)
                    || step.as_ref().is_some_and(expr_uses)
                    || block_uses(body)
            }
            Stmt::While { cond, body } => expr_uses(cond) || block_uses(body),
            Stmt::Return(e) => e.as_ref().is_some_and(expr_uses),
            Stmt::Block(b) => block_uses(b),
            Stmt::Break | Stmt::Continue | Stmt::Goto(_) | Stmt::Label(_) | Stmt::Empty => false,
        }
    }
    fn expr_uses(expr: &Expr) -> bool {
        match expr {
            Expr::Call { callee, args } => {
                callee.starts_with("_mm256") || args.iter().any(expr_uses)
            }
            Expr::Cast { ty, expr } => {
                *ty == Type::M256i
                    || matches!(ty, Type::Ptr(inner) if **inner == Type::M256i)
                    || expr_uses(expr)
            }
            Expr::Index { base, index } => expr_uses(base) || expr_uses(index),
            Expr::Unary { expr, .. } | Expr::AddrOf(expr) => expr_uses(expr),
            Expr::Binary { lhs, rhs, .. } => expr_uses(lhs) || expr_uses(rhs),
            Expr::Assign { target, value, .. } => expr_uses(target) || expr_uses(value),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => expr_uses(cond) || expr_uses(then_expr) || expr_uses(else_expr),
            Expr::IntLit(_) | Expr::Var(_) => false,
        }
    }
    func.params
        .iter()
        .any(|p| p.ty == Type::M256i || matches!(&p.ty, Type::Ptr(inner) if **inner == Type::M256i))
        || block_uses(&func.body)
}

/// Appends to a buffer the caller owns: every piece of text is a
/// `&'static str`, an identifier of the AST or a digit, pushed as it is.
struct Printer<'a> {
    out: &'a mut String,
    indent: usize,
}

impl Printer<'_> {
    fn line_start(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    /// A binary or assignment operator between its spaces (` + `).
    fn push_op(&mut self, symbol: &str) {
        self.out.push(' ');
        self.out.push_str(symbol);
        self.out.push(' ');
    }

    /// A declared name with its type: pointers bind to the name
    /// (`int *a`), other types get a space before it (`int a`).
    fn decl(&mut self, ty: &Type, name: &str) {
        push_type(self.out, ty);
        if !matches!(ty, Type::Ptr(_)) {
            self.out.push(' ');
        }
        self.out.push_str(name);
    }

    fn function(&mut self, func: &Function) {
        push_type(self.out, &func.ret);
        self.out.push(' ');
        self.out.push_str(&func.name);
        self.out.push('(');
        for (i, param) in func.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.decl(&param.ty, &param.name);
        }
        self.out.push_str(") ");
        self.block(&func.body);
        self.out.push('\n');
    }

    fn block(&mut self, block: &Block) {
        self.out.push_str("{\n");
        self.indent += 1;
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
        self.indent -= 1;
        self.line_start();
        self.out.push('}');
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Label(name) => {
                // Labels are printed without indentation, like in the paper's listings.
                self.out.push_str(name);
                self.out.push_str(":\n");
                return;
            }
            _ => self.line_start(),
        }
        match stmt {
            Stmt::Decl { ty, name, init } => {
                self.decl(ty, name);
                if let Some(init) = init {
                    self.out.push_str(" = ");
                    self.expr(init, 0);
                }
                self.out.push_str(";\n");
            }
            Stmt::Expr(e) => {
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.out.push_str("if (");
                self.expr(cond, 0);
                self.out.push_str(") ");
                self.block(then_branch);
                if let Some(else_branch) = else_branch {
                    self.out.push_str(" else ");
                    self.block(else_branch);
                }
                self.out.push('\n');
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.out.push_str("for (");
                match init.as_deref() {
                    Some(Stmt::Decl { ty, name, init }) => {
                        self.decl(ty, name);
                        if let Some(init) = init {
                            self.out.push_str(" = ");
                            self.expr(init, 0);
                        }
                    }
                    Some(Stmt::Expr(e)) => self.expr(e, 0),
                    Some(other) => {
                        // Unreachable by construction of the parser, but keep
                        // the printer total.
                        self.out.push_str(&format!("/* {:?} */", other));
                    }
                    None => {}
                }
                self.out.push_str("; ");
                if let Some(cond) = cond {
                    self.expr(cond, 0);
                }
                self.out.push_str("; ");
                if let Some(step) = step {
                    self.expr(step, 0);
                }
                self.out.push_str(") ");
                self.block(body);
                self.out.push('\n');
            }
            Stmt::While { cond, body } => {
                self.out.push_str("while (");
                self.expr(cond, 0);
                self.out.push_str(") ");
                self.block(body);
                self.out.push('\n');
            }
            Stmt::Return(None) => self.out.push_str("return;\n"),
            Stmt::Return(Some(e)) => {
                self.out.push_str("return ");
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            Stmt::Break => self.out.push_str("break;\n"),
            Stmt::Continue => self.out.push_str("continue;\n"),
            Stmt::Goto(label) => {
                self.out.push_str("goto ");
                self.out.push_str(label);
                self.out.push_str(";\n");
            }
            Stmt::Block(b) => {
                self.block(b);
                self.out.push('\n');
            }
            Stmt::Empty => self.out.push_str(";\n"),
            Stmt::Label(_) => unreachable!("labels handled above"),
        }
    }

    /// Prints an expression; `parent_prec` is the binding strength of the
    /// surrounding context so that parentheses are inserted only when needed.
    fn expr(&mut self, expr: &Expr, parent_prec: u8) {
        match expr {
            Expr::IntLit(v) => push_int(self.out, *v),
            Expr::Var(name) => self.out.push_str(name),
            Expr::Index { base, index } => {
                self.expr(base, 14);
                self.out.push('[');
                self.expr(index, 0);
                self.out.push(']');
            }
            Expr::Unary { op, expr } => {
                let prec = 12;
                let paren = parent_prec > prec;
                if paren {
                    self.out.push('(');
                }
                self.out.push_str(op.symbol());
                self.expr(expr, prec + 1);
                if paren {
                    self.out.push(')');
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let prec = binop_prec(*op);
                let paren = parent_prec > prec;
                if paren {
                    self.out.push('(');
                }
                self.expr(lhs, prec);
                self.push_op(op.symbol());
                self.expr(rhs, prec + 1);
                if paren {
                    self.out.push(')');
                }
            }
            Expr::Assign { op, target, value } => {
                let prec = 1;
                let paren = parent_prec > prec;
                if paren {
                    self.out.push('(');
                }
                self.expr(target, 2);
                self.push_op(op.symbol());
                self.expr(value, prec);
                if paren {
                    self.out.push(')');
                }
            }
            Expr::Call { callee, args } => {
                self.out.push_str(callee);
                self.out.push('(');
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(arg, 0);
                }
                self.out.push(')');
            }
            Expr::Cast { ty, expr } => {
                let prec = 12;
                let paren = parent_prec > prec;
                if paren {
                    self.out.push('(');
                }
                self.out.push('(');
                push_type(self.out, ty);
                self.out.push(')');
                self.expr(expr, prec);
                if paren {
                    self.out.push(')');
                }
            }
            Expr::AddrOf(expr) => {
                let prec = 12;
                let paren = parent_prec > prec;
                if paren {
                    self.out.push('(');
                }
                self.out.push('&');
                self.expr(expr, prec + 1);
                if paren {
                    self.out.push(')');
                }
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let prec = 2;
                let paren = parent_prec > prec;
                if paren {
                    self.out.push('(');
                }
                self.expr(cond, prec + 1);
                self.out.push_str(" ? ");
                self.expr(then_expr, 0);
                self.out.push_str(" : ");
                self.expr(else_expr, prec);
                if paren {
                    self.out.push(')');
                }
            }
        }
    }
}

fn binop_prec(op: crate::ast::BinOp) -> u8 {
    use crate::ast::BinOp::*;
    match op {
        Or => 3,
        And => 4,
        BitOr => 5,
        BitXor => 6,
        BitAnd => 7,
        Eq | Ne => 8,
        Lt | Le | Gt | Ge => 9,
        Shl | Shr => 10,
        Add | Sub => 11,
        Mul | Div | Rem => 12,
    }
}

/// Appends a type as C spells it (`int`, `__m256i *`): the text of its
/// `Display`.
fn push_type(out: &mut String, ty: &Type) {
    match ty {
        Type::Void => out.push_str("void"),
        Type::Int => out.push_str("int"),
        Type::M256i => out.push_str("__m256i"),
        Type::Ptr(inner) => {
            push_type(out, inner);
            out.push_str(" *");
        }
    }
}

/// Appends the decimal digits of `v`, with a leading `-` when negative: the
/// text of its `Display`.
fn push_int(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    let mut n = v.unsigned_abs();
    // u64::MAX has 20 decimal digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_function};

    fn roundtrip_fn(src: &str) {
        let f1 = parse_function(src).unwrap();
        let printed = print_function(&f1);
        let f2 = parse_function(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {}\n---\n{}", e, printed));
        assert_eq!(f1, f2, "round trip changed the AST:\n{}", printed);
    }

    #[test]
    fn roundtrip_scalar_kernel() {
        roundtrip_fn(
            "void s212(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }",
        );
    }

    #[test]
    fn roundtrip_vector_kernel() {
        roundtrip_fn(
            "void v(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], x); } for (; i < n; i += 1) { a[i] = b[i]; } }",
        );
    }

    #[test]
    fn roundtrip_control_flow() {
        roundtrip_fn(
            "void s124(int *a, int *b, int *c, int *d, int *e, int n) { int j; j = -1; for (int i = 0; i < n; i++) { if (b[i] > 0) { j += 1; a[j] = b[i] + d[i] * e[i]; } else { j += 1; a[j] = c[i] + d[i] * e[i]; } } }",
        );
    }

    #[test]
    fn roundtrip_goto() {
        roundtrip_fn(
            "void s278(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { if (a[i] > 0) { goto L20; } b[i] = -b[i] + d[i] * e[i]; goto L30; L20: c[i] = -c[i] + d[i] * e[i]; L30: a[i] = b[i] + c[i] * d[i]; } }",
        );
    }

    #[test]
    fn include_emitted_only_for_vector_code() {
        let scalar = parse_function("void f(int n, int *a) { a[0] = n; }").unwrap();
        let program = Program {
            functions: vec![scalar],
        };
        assert!(!print_program(&program).contains("immintrin"));

        let vector = parse_function(
            "void g(int n, int *a) { __m256i z = _mm256_setzero_si256(); _mm256_storeu_si256((__m256i *)&a[0], z); }",
        )
        .unwrap();
        let program = Program {
            functions: vec![vector],
        };
        assert!(print_program(&program).contains("#include <immintrin.h>"));
    }

    #[test]
    fn expr_parenthesization_preserves_meaning() {
        let e = parse_expr("(a + b) * c").unwrap();
        let printed = print_expr(&e);
        let reparsed = parse_expr(&printed).unwrap();
        assert_eq!(e, reparsed);
        assert!(printed.contains('('), "needs parens: {}", printed);

        let e = parse_expr("a + b * c").unwrap();
        let printed = print_expr(&e);
        assert_eq!(parse_expr(&printed).unwrap(), e);
    }

    #[test]
    fn ternary_and_assignment_print() {
        let e = parse_expr("x = a > b ? a : b").unwrap();
        let printed = print_expr(&e);
        assert_eq!(parse_expr(&printed).unwrap(), e);
    }

    use crate::ast::Program;
}
