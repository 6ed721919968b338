//! The rule-based strip-mining vectorizer underlying the synthetic LLM.
//!
//! The paper's candidate generator is GPT-4; this reproduction replaces it
//! with a deterministic vectorizer that can produce *correct* AVX2 candidates
//! for the kernel shapes GPT-4 handles well (element-wise loops, if-converted
//! control flow, reductions, and induction-style scalar recurrences such as
//! s453), plus a catalogue of *mutations* reproducing the failure modes the
//! paper reports (missing epilogues, wrong accumulator seeding, unsafe
//! hoisting, swapped blends, off-by-one subscripts, non-existent intrinsics).
//! The stochastic layer that decides which of these to emit lives in
//! [`crate::llm`].

use lv_analysis::{
    analyze_function, collect_accesses, loop_nest, AccessKind, CanonicalLoop, DependenceReport,
};
use lv_cir::ast::{AssignOp, BinOp, Block, Expr, Function, Stmt, Type};
use lv_cir::builder as b;
use lv_cir::intrinsics::VECTOR_WIDTH;

/// Why the rule-based vectorizer declined to produce a correct candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedKernel {
    /// Human-readable reason (also used in agent transcripts).
    pub reason: String,
}

impl UnsupportedKernel {
    fn new(reason: impl Into<String>) -> UnsupportedKernel {
        UnsupportedKernel {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for UnsupportedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot vectorize: {}", self.reason)
    }
}

impl std::error::Error for UnsupportedKernel {}

/// Produces a correct AVX2 vectorization of `scalar`, when the kernel falls
/// into one of the supported shapes.
///
/// # Errors
///
/// Returns [`UnsupportedKernel`] for kernels with goto control flow, opaque
/// subscripts, flow-dependent recurrences on arrays, nested loops, or
/// operators with no AVX2 integer equivalent.
pub fn vectorize_correct(scalar: &Function) -> Result<Function, UnsupportedKernel> {
    vectorize_analyzed(scalar, &analyze_function(scalar))
}

/// [`vectorize_correct`] with the scalar's dependence report already
/// derived (`report` must be `analyze_function(scalar)`).
pub(crate) fn vectorize_analyzed(
    scalar: &Function,
    report: &DependenceReport,
) -> Result<Function, UnsupportedKernel> {
    let nest = loop_nest(scalar);
    if nest.is_nested() {
        return Err(UnsupportedKernel::new("nested loops are not supported"));
    }
    let Some(l) = nest.single().cloned() else {
        return Err(UnsupportedKernel::new("no single canonical for-loop"));
    };
    if l.step_or_one() != 1 || !l.is_forward() {
        return Err(UnsupportedKernel::new(
            "only unit-stride forward loops are supported",
        ));
    }
    if report.has_goto {
        return Err(UnsupportedKernel::new("goto-based control flow"));
    }
    if !report.opaque_arrays.is_empty() {
        return Err(UnsupportedKernel::new(
            "subscripts are not affine in the induction variable",
        ));
    }
    if report
        .loop_carried()
        .iter()
        .any(|d| d.kind == lv_analysis::DepKind::Flow)
    {
        return Err(UnsupportedKernel::new(
            "loop-carried flow dependence on an array",
        ));
    }

    let body = collect_accesses(&l.body, &l.iv);
    // Scalars updated in the body: reductions and s453-style linear
    // recurrences are supported; anything else is not.
    let mut reduction: Option<ReductionInfo> = None;
    let mut recurrence: Option<RecurrenceInfo> = None;
    for update in &body.scalar_updates {
        if report.reductions.contains(&update.name) {
            if reduction.is_some() {
                return Err(UnsupportedKernel::new("multiple reduction accumulators"));
            }
            reduction = Some(find_reduction(&l, &update.name)?);
        } else if report.recurrences.contains(&update.name) {
            if recurrence.is_some() {
                return Err(UnsupportedKernel::new("multiple scalar recurrences"));
            }
            recurrence = Some(find_linear_recurrence(&l, &update.name)?);
        }
    }

    let mut builder = VectorBuilder {
        iv: l.iv.clone(),
        reduction,
        recurrence,
        preloaded: Vec::new(),
        temp_counter: 0,
    };
    builder.build(scalar, &l)
}

/// A recognized reduction accumulator: every top-level update of it in the
/// loop body is `acc += expr` or `acc -= expr`, and each update is lowered
/// from its own operator and value.
#[derive(Debug, Clone)]
struct ReductionInfo {
    name: String,
}

fn find_reduction(l: &CanonicalLoop, name: &str) -> Result<ReductionInfo, UnsupportedKernel> {
    let mut updates = 0;
    for stmt in &l.body.stmts {
        if let Stmt::Expr(Expr::Assign { op, target, .. }) = stmt {
            if target.as_var() == Some(name) {
                if !matches!(op, AssignOp::AddAssign | AssignOp::SubAssign) {
                    return Err(UnsupportedKernel::new(format!(
                        "unsupported reduction operator on `{}`",
                        name
                    )));
                }
                updates += 1;
            }
        }
    }
    if updates == 0 {
        return Err(UnsupportedKernel::new(format!(
            "reduction `{}` is not a top-level statement of the loop body",
            name
        )));
    }
    Ok(ReductionInfo {
        name: name.to_string(),
    })
}

/// A recognized linear scalar recurrence `s += constant` (s453).
#[derive(Debug, Clone)]
struct RecurrenceInfo {
    name: String,
    increment: i64,
}

fn find_linear_recurrence(
    l: &CanonicalLoop,
    name: &str,
) -> Result<RecurrenceInfo, UnsupportedKernel> {
    for stmt in &l.body.stmts {
        if let Stmt::Expr(Expr::Assign { op, target, value }) = stmt {
            if target.as_var() == Some(name) {
                if *op == AssignOp::AddAssign {
                    if let Some(c) = value.as_int_lit() {
                        return Ok(RecurrenceInfo {
                            name: name.to_string(),
                            increment: c,
                        });
                    }
                }
                return Err(UnsupportedKernel::new(format!(
                    "scalar `{}` carries a non-linear recurrence",
                    name
                )));
            }
        }
    }
    Err(UnsupportedKernel::new(format!(
        "recurrence `{}` is updated under control flow",
        name
    )))
}

struct VectorBuilder {
    iv: String,
    reduction: Option<ReductionInfo>,
    recurrence: Option<RecurrenceInfo>,
    /// Vector temporaries holding pre-loaded array slices, keyed by the array
    /// name and the printed subscript. Loading every read slice *before* any
    /// store is what makes anti-dependent kernels such as s212 come out
    /// correct (the paper's Figure 1(b) does exactly this), and updating the
    /// temporary after a store keeps same-iteration flow dependences correct.
    preloaded: Vec<((String, String), String)>,
    temp_counter: usize,
}

impl VectorBuilder {
    fn fresh(&mut self, prefix: &str) -> String {
        self.temp_counter += 1;
        format!("{}_v{}", prefix, self.temp_counter)
    }

    fn preloaded_temp(&self, array: &str, index: &Expr) -> Option<String> {
        let key = (array.to_string(), lv_cir::print_expr(index));
        self.preloaded
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, name)| name.clone())
    }

    fn read_slice(&self, array: &str, index: &Expr) -> Expr {
        match self.preloaded_temp(array, index) {
            Some(temp) => Expr::var(temp),
            None => b::vec_load(array, index.clone()),
        }
    }

    fn build(
        &mut self,
        scalar: &Function,
        l: &CanonicalLoop,
    ) -> Result<Function, UnsupportedKernel> {
        let width = VECTOR_WIDTH as i64;
        let mut prelude: Vec<Stmt> = Vec::new();
        // Keep statements before/after the loop unchanged (e.g. `j = -1;`,
        // final stores of reduction results).
        let mut seen_loop = false;
        let mut postlude: Vec<Stmt> = Vec::new();
        for stmt in &scalar.body.stmts {
            if stmt.is_loop() {
                seen_loop = true;
                continue;
            }
            if seen_loop {
                postlude.push(stmt.clone());
            } else {
                prelude.push(stmt.clone());
            }
        }

        // Vector accumulators.
        if let Some(red) = &self.reduction {
            prelude.push(b::decl_vec(format!("{}_vec", red.name), b::vec_zero()));
        }
        if let Some(rec) = &self.recurrence {
            // Seed lanes with s + c, s + 2c, ..., s + 8c (the paper's "second
            // attempt" for s453).
            let lanes: Vec<Expr> = (1..=width)
                .map(|k| {
                    Expr::bin(
                        BinOp::Add,
                        Expr::var(&rec.name),
                        Expr::lit(rec.increment * k),
                    )
                })
                .collect();
            prelude.push(b::decl_vec(format!("{}_vec", rec.name), b::vec_setr(lanes)));
        }

        // Vector loop body. First pre-load every array slice the body reads,
        // so that stores emitted later in the chunk cannot clobber values the
        // scalar code would have read from memory (anti dependences).
        let mut vbody: Vec<Stmt> = Vec::new();
        let accesses = collect_accesses(&l.body, &l.iv);
        for access in &accesses.accesses {
            if access.kind != AccessKind::Read {
                continue;
            }
            let key = (access.array.clone(), lv_cir::print_expr(&access.index));
            if self.preloaded.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let temp = self.fresh(&access.array);
            vbody.push(b::decl_vec(
                &temp,
                b::vec_load(&access.array, access.index.clone()),
            ));
            self.preloaded.push((key, temp));
        }
        for stmt in &l.body.stmts {
            self.lower_stmt(stmt, &mut vbody)?;
        }
        if let Some(rec) = &self.recurrence {
            // Advance both the vector lanes and the scalar shadow value.
            vbody.push(b::assign_stmt(
                Expr::var(format!("{}_vec", rec.name)),
                Expr::call(
                    "_mm256_add_epi32",
                    vec![
                        Expr::var(format!("{}_vec", rec.name)),
                        b::vec_splat(Expr::lit(rec.increment * width)),
                    ],
                ),
            ));
            vbody.push(b::compound_assign_stmt(
                AssignOp::AddAssign,
                Expr::var(&rec.name),
                Expr::lit(rec.increment * width),
            ));
        }

        let mut out_body: Vec<Stmt> = Vec::new();
        out_body.extend(prelude);
        out_body.push(b::decl_int(&self.iv, None));
        out_body.push(b::vector_loop(
            &self.iv,
            l.start.clone(),
            l.bound.clone(),
            width,
            Block::from_stmts(vbody),
            false,
        ));

        // Reduction: fold the vector accumulator back into the scalar. The
        // lanes hold signed partial sums (a `-=` update subtracted inside the
        // loop), so the fold always adds.
        if let Some(red) = &self.reduction.clone() {
            let acc_vec = Expr::var(format!("{}_vec", red.name));
            for lane in 0..VECTOR_WIDTH {
                let extract = Expr::call(
                    "_mm256_extract_epi32",
                    vec![acc_vec.clone(), Expr::lit(lane as i64)],
                );
                out_body.push(b::compound_assign_stmt(
                    AssignOp::AddAssign,
                    Expr::var(&red.name),
                    extract,
                ));
            }
        }

        // Scalar epilogue covering the remaining iterations.
        out_body.push(b::epilogue_loop(
            &self.iv,
            l.bound.clone(),
            1,
            l.body.clone(),
        ));
        out_body.extend(postlude);

        Ok(Function::new(
            scalar.name.clone(),
            Type::Void,
            scalar.params.clone(),
            Block::from_stmts(out_body),
        ))
    }

    fn lower_stmt(&mut self, stmt: &Stmt, out: &mut Vec<Stmt>) -> Result<(), UnsupportedKernel> {
        match stmt {
            Stmt::Expr(Expr::Assign { op, target, value }) => {
                // Reduction / recurrence updates are handled at loop level.
                if let Some(name) = target.as_var() {
                    if self.reduction.as_ref().is_some_and(|r| r.name == name) {
                        // `find_reduction` admitted only `+=` and `-=`.
                        let expr_vec = self.lower_expr(value, out)?;
                        let acc = Expr::var(format!("{}_vec", name));
                        let callee = if *op == AssignOp::SubAssign {
                            "_mm256_sub_epi32"
                        } else {
                            "_mm256_add_epi32"
                        };
                        out.push(b::assign_stmt(
                            acc.clone(),
                            Expr::call(callee, vec![acc, expr_vec]),
                        ));
                        return Ok(());
                    }
                    if self.recurrence.as_ref().is_some_and(|r| r.name == name) {
                        // The per-iteration bump is replaced by the vectorized
                        // bump emitted at the end of the loop body.
                        return Ok(());
                    }
                    return Err(UnsupportedKernel::new(format!(
                        "scalar `{}` is written inside the loop body",
                        name
                    )));
                }
                // Array store.
                let (array, index) = match target.as_ref() {
                    Expr::Index { base, index } => match base.as_var() {
                        Some(a) => (a.to_string(), (**index).clone()),
                        None => return Err(UnsupportedKernel::new("unsupported store target")),
                    },
                    _ => return Err(UnsupportedKernel::new("unsupported assignment target")),
                };
                let full_value = match op.binop() {
                    None => (**value).clone(),
                    Some(binop) => Expr::bin(binop, (**target).clone(), (**value).clone()),
                };
                let value_vec = self.lower_expr(&full_value, out)?;
                // Materialize the stored value in a temporary: later
                // statements in the same iteration must observe it.
                let stored = self.fresh(&array);
                out.push(b::decl_vec(&stored, value_vec));
                out.push(b::vec_store(&array, index.clone(), Expr::var(&stored)));
                let key = (array.clone(), lv_cir::print_expr(&index));
                if let Some(slot) = self.preloaded.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = stored;
                } else {
                    self.preloaded.push((key, stored));
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => self.lower_branch(cond, then_branch, else_branch.as_ref(), out),
            Stmt::Empty | Stmt::Label(_) => Ok(()),
            other => Err(UnsupportedKernel::new(format!(
                "unsupported statement in loop body: {}",
                lv_cir::print_stmt(other)
            ))),
        }
    }

    /// If-conversion: both branches are computed, stores are blended on the
    /// comparison mask (the s124/s2711 pattern).
    fn lower_branch(
        &mut self,
        cond: &Expr,
        then_branch: &Block,
        else_branch: Option<&Block>,
        out: &mut Vec<Stmt>,
    ) -> Result<(), UnsupportedKernel> {
        let mask_expr = self.lower_condition(cond, out)?;
        let mask_name = self.fresh("mask");
        out.push(b::decl_vec(&mask_name, mask_expr));

        // Collect the stores of each branch: array -> value expression.
        let then_stores = branch_stores(then_branch)?;
        let else_stores = match else_branch {
            Some(e) => branch_stores(e)?,
            None => Vec::new(),
        };
        let mut targets: Vec<(String, Expr)> = Vec::new();
        for (a, idx, _) in then_stores.iter().chain(else_stores.iter()) {
            if !targets.iter().any(|(ta, ti)| ta == a && ti == idx) {
                targets.push((a.clone(), idx.clone()));
            }
        }
        for (array, index) in targets {
            let then_val = then_stores
                .iter()
                .find(|(a, idx, _)| *a == array && *idx == index)
                .map(|(_, _, v)| v.clone());
            let else_val = else_stores
                .iter()
                .find(|(a, idx, _)| *a == array && *idx == index)
                .map(|(_, _, v)| v.clone());
            let then_vec = match then_val {
                Some(v) => self.lower_expr(&v, out)?,
                None => self.read_slice(&array, &index),
            };
            let else_vec = match else_val {
                Some(v) => self.lower_expr(&v, out)?,
                None => self.read_slice(&array, &index),
            };
            let blended = b::vec_blend(else_vec, then_vec, Expr::var(&mask_name));
            let stored = self.fresh(&array);
            out.push(b::decl_vec(&stored, blended));
            out.push(b::vec_store(&array, index.clone(), Expr::var(&stored)));
            let key = (array.clone(), lv_cir::print_expr(&index));
            if let Some(slot) = self.preloaded.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = stored;
            } else {
                self.preloaded.push((key, stored));
            }
        }
        Ok(())
    }

    fn lower_condition(
        &mut self,
        cond: &Expr,
        out: &mut Vec<Stmt>,
    ) -> Result<Expr, UnsupportedKernel> {
        match cond {
            Expr::Binary { op, lhs, rhs } if op.is_comparison() => {
                let l = self.lower_expr(lhs, out)?;
                let r = self.lower_expr(rhs, out)?;
                match op {
                    BinOp::Gt => Ok(b::vec_cmpgt(l, r)),
                    BinOp::Lt => Ok(b::vec_cmpgt(r, l)),
                    BinOp::Eq => Ok(Expr::call("_mm256_cmpeq_epi32", vec![l, r])),
                    BinOp::Ne => {
                        // !(l == r): emulate with cmpeq and swap of blend
                        // operands is cleaner, but an xor with all-ones works.
                        let eq = Expr::call("_mm256_cmpeq_epi32", vec![l, r]);
                        Ok(Expr::call(
                            "_mm256_xor_si256",
                            vec![eq, b::vec_splat(Expr::lit(-1))],
                        ))
                    }
                    BinOp::Ge => {
                        // l >= r  ==  !(r > l)
                        let gt = b::vec_cmpgt(r, l);
                        Ok(Expr::call(
                            "_mm256_xor_si256",
                            vec![gt, b::vec_splat(Expr::lit(-1))],
                        ))
                    }
                    BinOp::Le => {
                        let gt = b::vec_cmpgt(l, r);
                        Ok(Expr::call(
                            "_mm256_xor_si256",
                            vec![gt, b::vec_splat(Expr::lit(-1))],
                        ))
                    }
                    _ => Err(UnsupportedKernel::new("unsupported comparison")),
                }
            }
            other => {
                // Treat `if (x)` as `if (x != 0)`.
                let l = self.lower_expr(other, out)?;
                let zero = b::vec_zero();
                let eq = Expr::call("_mm256_cmpeq_epi32", vec![l, zero]);
                Ok(Expr::call(
                    "_mm256_xor_si256",
                    vec![eq, b::vec_splat(Expr::lit(-1))],
                ))
            }
        }
    }

    fn lower_expr(&mut self, expr: &Expr, out: &mut Vec<Stmt>) -> Result<Expr, UnsupportedKernel> {
        match expr {
            Expr::IntLit(v) => Ok(b::vec_splat(Expr::lit(*v))),
            Expr::Var(name) if *name == self.iv => {
                let lanes: Vec<Expr> = (0..VECTOR_WIDTH as i64)
                    .map(|k| b::offset_index(&self.iv, k))
                    .collect();
                Ok(b::vec_setr(lanes))
            }
            Expr::Var(name) => {
                if let Some(rec) = &self.recurrence {
                    if rec.name == *name {
                        return Ok(Expr::var(format!("{}_vec", name)));
                    }
                }
                if let Some(red) = &self.reduction {
                    if red.name == *name {
                        return Ok(Expr::var(format!("{}_vec", name)));
                    }
                }
                // Loop-invariant scalar: broadcast.
                Ok(b::vec_splat(Expr::var(name)))
            }
            Expr::Index { base, index } => match base.as_var() {
                Some(array) => Ok(self.read_slice(array, index)),
                None => Err(UnsupportedKernel::new("unsupported array base expression")),
            },
            Expr::Unary { op, expr } => match op {
                lv_cir::UnOp::Neg => {
                    let inner = self.lower_expr(expr, out)?;
                    Ok(Expr::call("_mm256_sub_epi32", vec![b::vec_zero(), inner]))
                }
                _ => Err(UnsupportedKernel::new("unsupported unary operator")),
            },
            Expr::Binary { op, lhs, rhs } => {
                let l = self.lower_expr(lhs, out)?;
                let r = self.lower_expr(rhs, out)?;
                b::vec_binop(*op, l, r).ok_or_else(|| {
                    UnsupportedKernel::new(format!(
                        "operator `{}` has no AVX2 integer equivalent",
                        op.symbol()
                    ))
                })
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let mask = self.lower_condition(cond, out)?;
                let t = self.lower_expr(then_expr, out)?;
                let e = self.lower_expr(else_expr, out)?;
                Ok(b::vec_blend(e, t, mask))
            }
            other => Err(UnsupportedKernel::new(format!(
                "unsupported expression: {}",
                lv_cir::print_expr(other)
            ))),
        }
    }
}

type StoreTriple = (String, Expr, Expr);

/// Extracts the array stores of an if-branch: `(array, index, stored value)`.
/// Any other statement makes the branch unsupported.
fn branch_stores(block: &Block) -> Result<Vec<StoreTriple>, UnsupportedKernel> {
    let mut out = Vec::new();
    for stmt in &block.stmts {
        match stmt {
            Stmt::Expr(Expr::Assign { op, target, value }) => match target.as_ref() {
                Expr::Index { base, index } => {
                    let array = base
                        .as_var()
                        .ok_or_else(|| UnsupportedKernel::new("unsupported store target"))?;
                    let full_value = match op.binop() {
                        None => (**value).clone(),
                        Some(binop) => Expr::bin(binop, (**target).clone(), (**value).clone()),
                    };
                    out.push((array.to_string(), (**index).clone(), full_value));
                }
                _ => {
                    return Err(UnsupportedKernel::new(
                        "branch writes a scalar; if-conversion not applicable",
                    ))
                }
            },
            Stmt::Empty => {}
            other => {
                return Err(UnsupportedKernel::new(format!(
                    "unsupported statement under control flow: {}",
                    lv_cir::print_stmt(other)
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;
    use lv_interp::{checksum_test, ChecksumConfig, ChecksumOutcome};

    fn check_correct(src: &str) {
        let scalar = parse_function(src).unwrap();
        let candidate = vectorize_correct(&scalar).expect("vectorization should succeed");
        assert!(lv_cir::compiles(&candidate), "candidate must type check");
        let report = checksum_test(&scalar, &candidate, &ChecksumConfig::default());
        assert_eq!(
            report.outcome,
            ChecksumOutcome::Plausible,
            "candidate must pass checksum testing:\n{}",
            lv_cir::print_function(&candidate)
        );
    }

    #[test]
    fn elementwise_kernel() {
        check_correct(
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
        );
    }

    #[test]
    fn s212_dependence_kernel() {
        check_correct(
            "void s212(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }",
        );
    }

    #[test]
    fn if_converted_kernel() {
        check_correct(
            "void s2711(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { if (b[i] != 0) { a[i] += b[i] * c[i]; } } }",
        );
        check_correct(
            "void s274(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { a[i] = c[i] + e[i] * d[i]; if (a[i] > 0) { b[i] = a[i] + b[i]; } else { a[i] = d[i] * e[i]; } } }",
        );
    }

    #[test]
    fn reduction_kernel() {
        check_correct(
            "void vsumr(int n, int *a, int *out) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } out[0] = s; }",
        );
        // Two updates of one accumulator, each lowered from its own value.
        check_correct(
            "void s319(int n, int *a, int *b, int *c, int *d, int *e, int *out) { int sum = 0; for (int i = 0; i < n; i++) { a[i] = c[i] + d[i]; sum += a[i]; b[i] = c[i] + e[i]; sum += b[i]; } out[0] = sum; }",
        );
        // A `-=` update leaves a negative partial sum in the lanes.
        check_correct(
            "void f(int n, int *a, int *b, int *out) { int s = 5; for (int i = 0; i < n; i++) { s -= a[i]; s += b[i]; } out[0] = s; }",
        );
    }

    #[test]
    fn s453_recurrence_kernel() {
        check_correct(
            "void s453(int *a, int *b, int n) { int s = 0; for (int i = 0; i < n; i++) { s += 2; a[i] = s * b[i]; } }",
        );
    }

    #[test]
    fn ternary_kernel() {
        check_correct(
            "void vmax(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = a[i] > b[i] ? a[i] : b[i]; } }",
        );
    }

    #[test]
    fn unsupported_kernels_are_reported() {
        let goto_kernel = parse_function(
            "void s278(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { if (a[i] > 0) { goto L20; } b[i] = -b[i] + d[i] * e[i]; goto L30; L20: c[i] = -c[i] + d[i] * e[i]; L30: a[i] = b[i] + c[i] * d[i]; } }",
        )
        .unwrap();
        assert!(vectorize_correct(&goto_kernel).is_err());

        let flow_dep = parse_function(
            "void f(int n, int *a) { for (int i = 1; i < n; i++) { a[i] = a[i - 1] + 1; } }",
        )
        .unwrap();
        assert!(vectorize_correct(&flow_dep).is_err());

        let opaque = parse_function(
            "void s124(int *a, int *b, int *c, int *d, int *e, int n) { int j; j = -1; for (int i = 0; i < n; i++) { if (b[i] > 0) { j += 1; a[j] = b[i] + d[i] * e[i]; } else { j += 1; a[j] = c[i] + d[i] * e[i]; } } }",
        )
        .unwrap();
        assert!(vectorize_correct(&opaque).is_err());

        let division = parse_function(
            "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] / 3; } }",
        )
        .unwrap();
        assert!(vectorize_correct(&division).is_err());
    }
}
