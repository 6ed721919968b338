//! Structural hashing of mini-C functions.
//!
//! The batch verification engine keys its persistent verdict cache by the
//! *structure* of the scalar kernel and the candidate, not by their source
//! text: two functions that differ only in the spelling of variables, labels,
//! or the function name are the same verification problem and must share a
//! hash, while any change to a constant, an operator, a type, an intrinsic
//! call, or the statement shape must produce a different hash.
//!
//! [`structural_hash`] therefore walks the AST in pre-order, feeding a
//! 64-bit FNV-1a accumulator ([`Fnv64`]) with:
//!
//! * one tag byte per AST node kind (so `a - b` and `-b` cannot collide by
//!   concatenation ambiguity, every composite node also hashes its arity);
//! * canonical indices instead of names: each distinct variable name is
//!   numbered in order of first occurrence (parameters first, then body
//!   occurrences), and `goto` labels are numbered independently the same
//!   way — this is what makes the hash alpha-renaming-insensitive;
//! * everything semantic verbatim: integer literals, operator and type tags,
//!   parameter order, and intrinsic callee names (an intrinsic is an
//!   operation, not a binder, so its spelling matters).
//!
//! The function *name* is deliberately excluded: a renamed kernel is the
//! same verification problem. The hash is a pure function of the AST — no
//! per-process randomness — so values are stable across runs and can be
//! persisted in the cache file (the cache format version guards against
//! changes to this scheme).

use crate::ast::{AssignOp, BinOp, Block, Expr, Function, Param, Stmt, Type, UnOp};
use std::collections::HashMap;

/// A 64-bit FNV-1a accumulator with a stable byte-level protocol.
///
/// Unlike [`std::collections::hash_map::DefaultHasher`], the output is
/// guaranteed stable across processes and toolchain versions, which the
/// persistent verdict cache relies on.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Absorbs one byte (used for node/operator tags).
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `i64` in little-endian byte order.
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string (so `"ab", "c"` and `"a", "bc"`
    /// cannot collide).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The canonicalizing visitor behind [`structural_hash`].
struct StructuralHasher {
    fnv: Fnv64,
    /// Variable name -> canonical index, in order of first occurrence.
    vars: HashMap<String, u32>,
    /// `goto` label name -> canonical index, numbered independently of
    /// variables so a variable and a label sharing a spelling stay unrelated.
    labels: HashMap<String, u32>,
}

impl StructuralHasher {
    fn new() -> StructuralHasher {
        StructuralHasher {
            fnv: Fnv64::new(),
            vars: HashMap::new(),
            labels: HashMap::new(),
        }
    }

    fn var_index(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.vars.get(name) {
            return i;
        }
        let i = self.vars.len() as u32;
        self.vars.insert(name.to_string(), i);
        i
    }

    fn label_index(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.labels.get(name) {
            return i;
        }
        let i = self.labels.len() as u32;
        self.labels.insert(name.to_string(), i);
        i
    }

    fn hash_type(&mut self, ty: &Type) {
        match ty {
            Type::Void => self.fnv.write_u8(0x01),
            Type::Int => self.fnv.write_u8(0x02),
            Type::M256i => self.fnv.write_u8(0x03),
            Type::Ptr(inner) => {
                self.fnv.write_u8(0x04);
                self.hash_type(inner);
            }
        }
    }

    fn hash_param(&mut self, param: &Param) {
        self.fnv.write_u8(0x05);
        self.hash_type(&param.ty);
        let idx = self.var_index(&param.name);
        self.fnv.write_u32(idx);
    }

    fn hash_block(&mut self, block: &Block) {
        self.fnv.write_u8(0x06);
        self.fnv.write_u64(block.stmts.len() as u64);
        for stmt in &block.stmts {
            self.hash_stmt(stmt);
        }
    }

    fn hash_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Decl { ty, name, init } => {
                self.fnv.write_u8(0x10);
                self.hash_type(ty);
                let idx = self.var_index(name);
                self.fnv.write_u32(idx);
                match init {
                    None => self.fnv.write_u8(0x00),
                    Some(e) => {
                        self.fnv.write_u8(0x01);
                        self.hash_expr(e);
                    }
                }
            }
            Stmt::Expr(e) => {
                self.fnv.write_u8(0x11);
                self.hash_expr(e);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.fnv.write_u8(0x12);
                self.hash_expr(cond);
                self.hash_block(then_branch);
                match else_branch {
                    None => self.fnv.write_u8(0x00),
                    Some(b) => {
                        self.fnv.write_u8(0x01);
                        self.hash_block(b);
                    }
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.fnv.write_u8(0x13);
                match init {
                    None => self.fnv.write_u8(0x00),
                    Some(s) => {
                        self.fnv.write_u8(0x01);
                        self.hash_stmt(s);
                    }
                }
                match cond {
                    None => self.fnv.write_u8(0x00),
                    Some(e) => {
                        self.fnv.write_u8(0x01);
                        self.hash_expr(e);
                    }
                }
                match step {
                    None => self.fnv.write_u8(0x00),
                    Some(e) => {
                        self.fnv.write_u8(0x01);
                        self.hash_expr(e);
                    }
                }
                self.hash_block(body);
            }
            Stmt::While { cond, body } => {
                self.fnv.write_u8(0x14);
                self.hash_expr(cond);
                self.hash_block(body);
            }
            Stmt::Return(e) => {
                self.fnv.write_u8(0x15);
                match e {
                    None => self.fnv.write_u8(0x00),
                    Some(e) => {
                        self.fnv.write_u8(0x01);
                        self.hash_expr(e);
                    }
                }
            }
            Stmt::Break => self.fnv.write_u8(0x16),
            Stmt::Continue => self.fnv.write_u8(0x17),
            Stmt::Goto(label) => {
                self.fnv.write_u8(0x18);
                let idx = self.label_index(label);
                self.fnv.write_u32(idx);
            }
            Stmt::Label(label) => {
                self.fnv.write_u8(0x19);
                let idx = self.label_index(label);
                self.fnv.write_u32(idx);
            }
            Stmt::Block(b) => {
                self.fnv.write_u8(0x1a);
                self.hash_block(b);
            }
            Stmt::Empty => self.fnv.write_u8(0x1b),
        }
    }

    fn hash_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::IntLit(v) => {
                self.fnv.write_u8(0x20);
                self.fnv.write_i64(*v);
            }
            Expr::Var(name) => {
                self.fnv.write_u8(0x21);
                let idx = self.var_index(name);
                self.fnv.write_u32(idx);
            }
            Expr::Index { base, index } => {
                self.fnv.write_u8(0x22);
                self.hash_expr(base);
                self.hash_expr(index);
            }
            Expr::Unary { op, expr } => {
                self.fnv.write_u8(0x23);
                self.fnv.write_u8(unop_tag(*op));
                self.hash_expr(expr);
            }
            Expr::Binary { op, lhs, rhs } => {
                self.fnv.write_u8(0x24);
                self.fnv.write_u8(binop_tag(*op));
                self.hash_expr(lhs);
                self.hash_expr(rhs);
            }
            Expr::Assign { op, target, value } => {
                self.fnv.write_u8(0x25);
                self.fnv.write_u8(assignop_tag(*op));
                self.hash_expr(target);
                self.hash_expr(value);
            }
            Expr::Call { callee, args } => {
                self.fnv.write_u8(0x26);
                // Intrinsic names are operations, not binders: hash verbatim.
                self.fnv.write_str(callee);
                self.fnv.write_u64(args.len() as u64);
                for arg in args {
                    self.hash_expr(arg);
                }
            }
            Expr::Cast { ty, expr } => {
                self.fnv.write_u8(0x27);
                self.hash_type(ty);
                self.hash_expr(expr);
            }
            Expr::AddrOf(expr) => {
                self.fnv.write_u8(0x28);
                self.hash_expr(expr);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.fnv.write_u8(0x29);
                self.hash_expr(cond);
                self.hash_expr(then_expr);
                self.hash_expr(else_expr);
            }
        }
    }
}

fn unop_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0x40,
        UnOp::Not => 0x41,
        UnOp::BitNot => 0x42,
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0x50,
        BinOp::Sub => 0x51,
        BinOp::Mul => 0x52,
        BinOp::Div => 0x53,
        BinOp::Rem => 0x54,
        BinOp::Lt => 0x55,
        BinOp::Le => 0x56,
        BinOp::Gt => 0x57,
        BinOp::Ge => 0x58,
        BinOp::Eq => 0x59,
        BinOp::Ne => 0x5a,
        BinOp::And => 0x5b,
        BinOp::Or => 0x5c,
        BinOp::BitAnd => 0x5d,
        BinOp::BitOr => 0x5e,
        BinOp::BitXor => 0x5f,
        BinOp::Shl => 0x60,
        BinOp::Shr => 0x61,
    }
}

fn assignop_tag(op: AssignOp) -> u8 {
    match op {
        AssignOp::Assign => 0x70,
        AssignOp::AddAssign => 0x71,
        AssignOp::SubAssign => 0x72,
        AssignOp::MulAssign => 0x73,
        AssignOp::DivAssign => 0x74,
        AssignOp::RemAssign => 0x75,
        AssignOp::AndAssign => 0x76,
        AssignOp::OrAssign => 0x77,
        AssignOp::XorAssign => 0x78,
        AssignOp::ShlAssign => 0x79,
        AssignOp::ShrAssign => 0x7a,
    }
}

/// The canonical structural hash of a function.
///
/// Insensitive to the spelling of the function name, variables, and `goto`
/// labels; sensitive to everything else — statement shape, operators,
/// integer constants, types, parameter order, and intrinsic callee names.
/// Stable across processes (see the module docs), so it can key persistent
/// caches.
pub fn structural_hash(func: &Function) -> u64 {
    hash_with(func, StructuralHasher::new())
}

/// [`structural_hash`] with the variable canonicalization seeded by an
/// environment of names at fixed indices `0..env.len()`.
///
/// This hashes a *pair* of functions consistently when name correspondence
/// between them is semantic: hashing one function in the other's
/// parameter-name environment makes the hash track which names the two
/// share. The verification stages do not need it — they bind a candidate's
/// parameters to the scalar's by **position**, so the verdict cache keys a
/// candidate by its plain [`structural_hash`] — but a caller that pairs
/// functions by name (for instance, to ask whether a candidate is the
/// rule-based one spelled with the scalar's names) gets:
///
/// * renaming the candidate's *locals* (or `goto` labels) never changes the
///   hash;
/// * renaming scalar and candidate parameters *jointly and consistently*
///   never changes the pair of hashes;
/// * renaming only the candidate's parameters (breaking the name pairing)
///   does.
///
/// A candidate local that happens to share an `env` name also binds to the
/// env index; that makes the hash over-sensitive to renaming such locals —
/// a spurious cache miss at worst, never a wrong hit.
pub fn structural_hash_in_env<'a>(func: &Function, env: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hasher = StructuralHasher::new();
    for name in env {
        let next = hasher.vars.len() as u32;
        hasher.vars.entry(name.to_string()).or_insert(next);
    }
    hash_with(func, hasher)
}

fn hash_with(func: &Function, mut hasher: StructuralHasher) -> u64 {
    hasher.fnv.write_u8(0x00); // scheme tag, bump on protocol changes
    hasher.hash_type(&func.ret);
    hasher.fnv.write_u64(func.params.len() as u64);
    for param in &func.params {
        hasher.hash_param(param);
    }
    hasher.hash_block(&func.body);
    hasher.fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function;

    const S000: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";

    fn f(src: &str) -> Function {
        parse_function(src).unwrap()
    }

    #[test]
    fn renamed_variables_share_a_hash() {
        let renamed = "void other(int m, int *x, int *y) { for (int j = 0; j < m; j++) { x[j] = y[j] + 1; } }";
        assert_eq!(structural_hash(&f(S000)), structural_hash(&f(renamed)));
    }

    #[test]
    fn constant_mutation_changes_the_hash() {
        let plus_two =
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 2; } }";
        assert_ne!(structural_hash(&f(S000)), structural_hash(&f(plus_two)));
    }

    #[test]
    fn operator_mutation_changes_the_hash() {
        let minus =
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] - 1; } }";
        assert_ne!(structural_hash(&f(S000)), structural_hash(&f(minus)));
    }

    #[test]
    fn swapping_distinct_variables_changes_the_hash() {
        // `a[i] = b[i]` vs `b[i] = a[i]`: same names, different structure of
        // first occurrences relative to use sites.
        let store_a = "void k(int n, int *a, int *b) { a[n] = b[n]; }";
        let store_b = "void k(int n, int *a, int *b) { b[n] = a[n]; }";
        assert_ne!(structural_hash(&f(store_a)), structural_hash(&f(store_b)));
    }

    #[test]
    fn renamed_labels_share_a_hash() {
        let with_goto =
            "void k(int n, int *a) { for (int i = 0; i < n; i++) { if (a[i]) { goto done; } } done: ; }";
        let renamed =
            "void k(int n, int *a) { for (int i = 0; i < n; i++) { if (a[i]) { goto out; } } out: ; }";
        assert_eq!(structural_hash(&f(with_goto)), structural_hash(&f(renamed)));
    }

    #[test]
    fn intrinsic_name_is_semantic() {
        let add = "void k(int *a) { _mm256_storeu_si256((__m256i *)&a[0], _mm256_add_epi32(_mm256_setzero_si256(), _mm256_set1_epi32(1))); }";
        let sub = "void k(int *a) { _mm256_storeu_si256((__m256i *)&a[0], _mm256_sub_epi32(_mm256_setzero_si256(), _mm256_set1_epi32(1))); }";
        assert_ne!(structural_hash(&f(add)), structural_hash(&f(sub)));
    }

    #[test]
    fn hash_is_stable_across_calls() {
        let a = structural_hash(&f(S000));
        let b = structural_hash(&f(S000));
        assert_eq!(a, b);
    }

    #[test]
    fn env_hash_tracks_parameter_name_correspondence() {
        let named = "void k(int n, int *a, int *b) { a[n] = b[n]; }";
        // Same function with its parameters renamed: alpha-equivalent alone,
        // but a *different* pairing against a scalar whose params are n/a/b.
        let renamed = "void k(int m, int *x, int *y) { x[m] = y[m]; }";
        let env = ["n", "a", "b"];
        assert_eq!(structural_hash(&f(named)), structural_hash(&f(renamed)));
        assert_ne!(
            structural_hash_in_env(&f(named), env),
            structural_hash_in_env(&f(renamed), env),
            "breaking the name pairing must change the env hash"
        );
        // Jointly renaming the environment with the function preserves it.
        assert_eq!(
            structural_hash_in_env(&f(named), env),
            structural_hash_in_env(&f(renamed), ["m", "x", "y"]),
        );
        // Renaming a local (not in the env) never matters.
        let local = "void k(int n, int *a) { int t = a[n]; a[0] = t; }";
        let local_renamed = "void k(int n, int *a) { int u = a[n]; a[0] = u; }";
        assert_eq!(
            structural_hash_in_env(&f(local), ["n", "a"]),
            structural_hash_in_env(&f(local_renamed), ["n", "a"]),
        );
    }

    #[test]
    fn fnv_write_str_is_length_prefixed() {
        let mut one = Fnv64::new();
        one.write_str("ab");
        one.write_str("c");
        let mut two = Fnv64::new();
        two.write_str("a");
        two.write_str("bc");
        assert_ne!(one.finish(), two.finish());
    }
}
