//! # lv-tsvc — the TSVC benchmark suite in mini-C
//!
//! The paper evaluates on the Test Suite for Vectorizing Compilers (TSVC),
//! restricted to 149 `for` loops over `int` arrays. This crate encodes the
//! integer variants of those kernels in the mini-C subset, together with the
//! category labels used in Figure 6 (control flow, dependence,
//! dependence + control flow, naively vectorizable, reduction,
//! reduction + control flow).
//!
//! Where the original TSVC kernel uses floating-point data or global arrays,
//! the kernel is re-expressed over `int *` parameters with the same loop
//! structure and dependence pattern — the properties the pipeline actually
//! exercises. The number of kernels encoded here is smaller than 149; the
//! experiment drivers in `lv-core` scale the reported counts accordingly and
//! EXPERIMENTS.md records the exact coverage.

#![warn(missing_docs)]

use lv_cir::ast::Function;
use lv_cir::parse_function;
use serde::{Deserialize, Serialize};

/// The kernel categories of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Loops dominated by if/goto control flow.
    ControlFlow,
    /// Loops with (possibly spurious) data dependences.
    Dependence,
    /// Both dependences and control flow.
    DependenceControlFlow,
    /// Straightforwardly vectorizable element-wise loops.
    NaivelyVectorizable,
    /// Reduction loops.
    Reduction,
    /// Reductions guarded by control flow.
    ReductionControlFlow,
}

impl Category {
    /// All categories in the order used by the figures.
    pub fn all() -> [Category; 6] {
        [
            Category::ControlFlow,
            Category::Dependence,
            Category::DependenceControlFlow,
            Category::NaivelyVectorizable,
            Category::Reduction,
            Category::ReductionControlFlow,
        ]
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Category::ControlFlow => "Control Flow",
            Category::Dependence => "Dependence",
            Category::DependenceControlFlow => "Dependence+Control Flow",
            Category::NaivelyVectorizable => "Naively Vectorizable",
            Category::Reduction => "Reduction",
            Category::ReductionControlFlow => "Reduction+Control Flow",
        }
    }
}

/// One benchmark kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// TSVC test name (e.g. `s212`).
    pub name: &'static str,
    /// Figure 6 category.
    pub category: Category,
    /// mini-C source of the scalar kernel.
    pub source: &'static str,
}

impl Kernel {
    /// Parses the kernel source into an AST.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source does not parse; the test suite
    /// guarantees it does.
    pub fn function(&self) -> Function {
        parse_function(self.source).expect("embedded TSVC kernel parses")
    }
}

macro_rules! kernels {
    ($(($name:literal, $cat:ident, $src:literal)),* $(,)?) => {
        &[ $( Kernel { name: $name, category: Category::$cat, source: $src } ),* ]
    };
}

/// The embedded TSVC kernels.
pub const KERNELS: &[Kernel] = kernels![
    // ---- naively vectorizable -------------------------------------------------
    ("s000", NaivelyVectorizable, "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }"),
    ("s111", NaivelyVectorizable, "void s111(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { a[i] = b[i] * c[i]; } }"),
    ("s1111", NaivelyVectorizable, "void s1111(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * d[i] + c[i] * d[i]; } }"),
    ("s112", NaivelyVectorizable, "void s112(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { a[i] = b[i] + c[i] * 5; } }"),
    ("s121", NaivelyVectorizable, "void s121(int n, int *a, int *b) { for (int i = 0; i < n - 1; i++) { a[i] = b[i + 1] + b[i]; } }"),
    ("s127", NaivelyVectorizable, "void s127(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n; i++) { a[i] = b[i] + c[i] * d[i]; } }"),
    ("s173", NaivelyVectorizable, "void s173(int n, int *a, int *b) { for (int i = 0; i < n - 8; i++) { a[i + 8] = a[i + 8] + b[i]; } }"),
    ("s243", NaivelyVectorizable, "void s243(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { a[i] = b[i] + c[i] * d[i]; b[i] = a[i] + d[i] * e[i]; } }"),
    ("s251", NaivelyVectorizable, "void s251(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n; i++) { a[i] = (b[i] + c[i] * d[i]) * 2; } }"),
    ("s1251", NaivelyVectorizable, "void s1251(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { a[i] = (b[i] + c[i]) * (d[i] - e[i]); } }"),
    ("s452", NaivelyVectorizable, "void s452(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { a[i] = b[i] + c[i] * i; } }"),
    ("s431", NaivelyVectorizable, "void s431(int n, int k, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = a[i] + b[i] * k; } }"),
    ("vag", NaivelyVectorizable, "void vag(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] * b[i]; } }"),
    ("vpv", NaivelyVectorizable, "void vpv(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] += b[i]; } }"),
    ("vtv", NaivelyVectorizable, "void vtv(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] *= b[i]; } }"),
    ("vpvtv", NaivelyVectorizable, "void vpvtv(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { a[i] += b[i] * c[i]; } }"),
    ("vpvts", NaivelyVectorizable, "void vpvts(int n, int s, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] += b[i] * s; } }"),
    ("s291", NaivelyVectorizable, "void s291(int n, int *a, int *b) { int im1; im1 = n - 1; for (int i = 0; i < n; i++) { a[i] = (b[i] + b[im1]) * 2; im1 = i; } }"),
    ("s292", NaivelyVectorizable, "void s292(int n, int *a, int *b) { int im1; int im2; im1 = n - 1; im2 = n - 2; for (int i = 0; i < n; i++) { a[i] = (b[i] + b[im1] + b[im2]) * 3; im2 = im1; im1 = i; } }"),
    ("s351", NaivelyVectorizable, "void s351(int n, int k, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = a[i] + k * b[i]; } }"),
    // ---- dependence ------------------------------------------------------------
    ("s212", Dependence, "void s212(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }"),
    ("s1213", Dependence, "void s1213(int n, int *a, int *b, int *c, int *d) { for (int i = 1; i < n - 1; i++) { a[i] = b[i - 1] + c[i]; b[i] = a[i + 1] * d[i]; } }"),
    ("s211", Dependence, "void s211(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 1; i < n - 1; i++) { a[i] = b[i - 1] + c[i] * d[i]; b[i] = b[i + 1] - e[i] * d[i]; } }"),
    ("s221", Dependence, "void s221(int n, int *a, int *b, int *c, int *d) { for (int i = 1; i < n; i++) { a[i] += c[i] * d[i]; b[i] = b[i - 1] + a[i] + d[i]; } }"),
    ("s222", Dependence, "void s222(int n, int *a, int *b, int *c) { for (int i = 1; i < n; i++) { a[i] += b[i] * c[i]; b[i] = b[i - 1] * b[i]; a[i] -= b[i] * c[i]; } }"),
    ("s231", Dependence, "void s231(int n, int *a, int *b) { for (int i = 1; i < n; i++) { a[i] = a[i - 1] + b[i]; } }"),
    ("s116", Dependence, "void s116(int n, int *a) { for (int i = 0; i < n - 5; i += 5) { a[i] = a[i + 1] * a[i]; a[i + 1] = a[i + 2] * a[i + 1]; a[i + 2] = a[i + 3] * a[i + 2]; a[i + 3] = a[i + 4] * a[i + 3]; a[i + 4] = a[i + 5] * a[i + 4]; } }"),
    ("s1113", Dependence, "void s1113(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = a[n / 2] + b[i]; } }"),
    ("s241", Dependence, "void s241(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] = b[i] * c[i] * d[i]; b[i] = a[i] * a[i + 1] * d[i]; } }"),
    ("s242", Dependence, "void s242(int n, int s1, int s2, int *a, int *b, int *c, int *d) { for (int i = 1; i < n; i++) { a[i] = a[i - 1] + s1 + s2 + b[i] + c[i] + d[i]; } }"),
    ("s252", Dependence, "void s252(int n, int *a, int *b, int *c) { int t; t = 0; for (int i = 0; i < n; i++) { int s = b[i] * c[i]; a[i] = s + t; t = s; } }"),
    ("s254", Dependence, "void s254(int n, int *a, int *b) { int x; x = b[n - 1]; for (int i = 0; i < n; i++) { a[i] = (b[i] + x) / 2; x = b[i]; } }"),
    ("s1244", Dependence, "void s1244(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] = b[i] + c[i] * c[i] + b[i] * b[i] + c[i]; d[i] = a[i] + a[i + 1]; } }"),
    ("s453", Dependence, "void s453(int *a, int *b, int n) { int s = 0; for (int i = 0; i < n; i++) { s += 2; a[i] = s * b[i]; } }"),
    ("s311", Dependence, "void s311(int n, int *a, int *b) { for (int i = 1; i < n; i++) { a[i] = a[i - 1] * b[i] + 1; } }"),
    // ---- control flow ------------------------------------------------------------
    ("s278", ControlFlow, "void s278(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { if (a[i] > 0) { goto L20; } b[i] = -b[i] + d[i] * e[i]; goto L30; L20: c[i] = -c[i] + d[i] * e[i]; L30: a[i] = b[i] + c[i] * d[i]; } }"),
    ("s271", ControlFlow, "void s271(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { if (b[i] > 0) { a[i] += b[i] * c[i]; } } }"),
    ("s2711", ControlFlow, "void s2711(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { if (b[i] != 0) { a[i] += b[i] * c[i]; } } }"),
    ("s2712", ControlFlow, "void s2712(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { if (a[i] > b[i]) { a[i] += b[i] * c[i]; } } }"),
    ("s272", ControlFlow, "void s272(int n, int t, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { if (e[i] >= t) { a[i] += c[i] * d[i]; b[i] += c[i] * c[i]; } } }"),
    ("s273", ControlFlow, "void s273(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { a[i] += d[i] * e[i]; if (a[i] < 0) { b[i] += d[i] * e[i]; } c[i] += a[i] * d[i]; } }"),
    ("s253", ControlFlow, "void s253(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n; i++) { if (a[i] > b[i]) { int s = a[i] - b[i] * d[i]; c[i] += s; a[i] = s; } } }"),
    ("s441", ControlFlow, "void s441(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n; i++) { if (d[i] < 0) { a[i] += b[i] * c[i]; } else { a[i] += c[i] * c[i]; } } }"),
    ("s443", ControlFlow, "void s443(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n; i++) { if (d[i] <= 0) { a[i] += b[i] * c[i]; } else { a[i] += b[i] * b[i]; } } }"),
    ("s161", ControlFlow, "void s161(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { if (b[i] < 0) { c[i + 1] = a[i] + d[i] * d[i]; } else { a[i] = c[i] + d[i] * d[i]; } } }"),
    ("vif", ControlFlow, "void vif(int n, int *a, int *b) { for (int i = 0; i < n; i++) { if (b[i] > 0) { a[i] = b[i]; } } }"),
    // ---- dependence + control flow ---------------------------------------------
    ("s274", DependenceControlFlow, "void s274(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n; i++) { a[i] = c[i] + e[i] * d[i]; if (a[i] > 0) { b[i] = a[i] + b[i]; } else { a[i] = d[i] * e[i]; } } }"),
    ("s124", DependenceControlFlow, "void s124(int *a, int *b, int *c, int *d, int *e, int n) { int j; j = -1; for (int i = 0; i < n; i++) { if (b[i] > 0) { j += 1; a[j] = b[i] + d[i] * e[i]; } else { j += 1; a[j] = c[i] + d[i] * e[i]; } } }"),
    ("s1161", DependenceControlFlow, "void s1161(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { if (c[i] < 0) { goto L20; } a[i] = c[i] + d[i] * d[i]; goto L10; L20: b[i] = a[i] + d[i] * d[i]; L10: a[i] = a[i]; } }"),
    ("s258", DependenceControlFlow, "void s258(int n, int *a, int *b, int *c, int *d, int *e) { int s; s = 0; for (int i = 0; i < n; i++) { if (a[i] > 0) { s = d[i] * d[i]; } b[i] = s * c[i] + d[i]; e[i] = (s + 1) * (s + 1); } }"),
    ("s277", DependenceControlFlow, "void s277(int n, int *a, int *b, int *c, int *d, int *e) { for (int i = 0; i < n - 1; i++) { if (a[i] >= 0) { if (b[i] >= 0) { a[i] += c[i] * d[i]; } b[i + 1] = c[i] + d[i] * e[i]; } } }"),
    // ---- reduction ------------------------------------------------------------
    ("vsumr", Reduction, "void vsumr(int n, int *a, int *out) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } out[0] = s; }"),
    ("vdotr", Reduction, "void vdotr(int n, int *a, int *b, int *out) { int s = 0; for (int i = 0; i < n; i++) { s += a[i] * b[i]; } out[0] = s; }"),
    ("s311r", Reduction, "void s311r(int n, int *a, int *out) { int sum = 0; for (int i = 0; i < n; i++) { sum += a[i]; } out[0] = sum; }"),
    ("s312", Reduction, "void s312(int n, int *a, int *out) { int prod = 1; for (int i = 0; i < n; i++) { prod *= a[i]; } out[0] = prod; }"),
    ("s313", Reduction, "void s313(int n, int *a, int *b, int *out) { int dot = 0; for (int i = 0; i < n; i++) { dot += a[i] * b[i]; } out[0] = dot; }"),
    ("s319", Reduction, "void s319(int n, int *a, int *b, int *c, int *d, int *e, int *out) { int sum = 0; for (int i = 0; i < n; i++) { a[i] = c[i] + d[i]; sum += a[i]; b[i] = c[i] + e[i]; sum += b[i]; } out[0] = sum; }"),
    ("s4113", Reduction, "void s4113(int n, int *a, int *b, int *c, int *out) { int s = 0; for (int i = 0; i < n; i++) { s += a[i] * b[i] + c[i]; } out[0] = s; }"),
    ("s352", Reduction, "void s352(int n, int *a, int *b, int *out) { int dot = 0; for (int i = 0; i < n - 4; i += 5) { dot = dot + a[i] * b[i] + a[i + 1] * b[i + 1] + a[i + 2] * b[i + 2] + a[i + 3] * b[i + 3] + a[i + 4] * b[i + 4]; } out[0] = dot; }"),
    // ---- reduction + control flow ----------------------------------------------
    ("s314", ReductionControlFlow, "void s314(int n, int *a, int *out) { int x = a[0]; for (int i = 0; i < n; i++) { if (a[i] > x) { x = a[i]; } } out[0] = x; }"),
    ("s315", ReductionControlFlow, "void s315(int n, int *a, int *out) { int x = a[0]; int index = 0; for (int i = 0; i < n; i++) { if (a[i] > x) { x = a[i]; index = i; } } out[0] = x + index; }"),
    ("s316", ReductionControlFlow, "void s316(int n, int *a, int *out) { int x = a[0]; for (int i = 1; i < n; i++) { if (a[i] < x) { x = a[i]; } } out[0] = x; }"),
    ("s3111", ReductionControlFlow, "void s3111(int n, int *a, int *out) { int s = 0; for (int i = 0; i < n; i++) { if (a[i] > 0) { s += a[i]; } } out[0] = s; }"),
    ("s3113", ReductionControlFlow, "void s3113(int n, int *a, int *out) { int x = a[0]; for (int i = 0; i < n; i++) { if (a[i] > x) { x = a[i]; } if (-a[i] > x) { x = -a[i]; } } out[0] = x; }"),
    ("s443r", ReductionControlFlow, "void s443r(int n, int *a, int *b, int *out) { int s = 0; for (int i = 0; i < n; i++) { if (a[i] > 0) { s += a[i] * b[i]; } else { s += a[i] + b[i]; } } out[0] = s; }"),
];

/// Looks up a kernel by name.
pub fn kernel(name: &str) -> Option<&'static Kernel> {
    KERNELS.iter().find(|k| k.name == name)
}

/// All kernels of one category.
pub fn kernels_in(category: Category) -> Vec<&'static Kernel> {
    KERNELS.iter().filter(|k| k.category == category).collect()
}

/// Number of kernels in the embedded suite.
pub fn suite_size() -> usize {
    KERNELS.len()
}

/// The number of loops in the full TSVC integer suite used by the paper;
/// experiment drivers scale counts from [`suite_size`] up to this population
/// when reporting paper-comparable numbers.
pub const PAPER_SUITE_SIZE: usize = 149;

#[cfg(test)]
mod tests {
    use super::*;
    use lv_analysis::analyze_function;
    use lv_cir::type_check;
    use lv_interp::{run_function, ArgBindings, ExecConfig};

    #[test]
    fn all_kernels_parse_and_type_check() {
        for kernel in KERNELS {
            let func = kernel.function();
            assert_eq!(func.name, kernel.name, "function name matches kernel name");
            type_check(&func).unwrap_or_else(|e| panic!("{}: {}", kernel.name, e));
        }
    }

    #[test]
    fn kernel_names_are_unique() {
        let mut names: Vec<_> = KERNELS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
    }

    #[test]
    fn all_kernels_execute_on_random_inputs() {
        for kernel in KERNELS {
            let func = kernel.function();
            let mut args = ArgBindings::new();
            for p in &func.params {
                match &p.ty {
                    lv_cir::Type::Int => args = args.scalar(64),
                    _ => args = args.array((1..=80).map(|x| x % 17 - 8).collect()),
                }
            }
            run_function(&func, &args, &ExecConfig::default())
                .unwrap_or_else(|e| panic!("{} failed to execute: {}", kernel.name, e));
        }
    }

    #[test]
    fn every_category_is_populated() {
        for cat in Category::all() {
            assert!(
                !kernels_in(cat).is_empty(),
                "category {:?} has no kernels",
                cat
            );
        }
    }

    #[test]
    fn category_labels_are_consistent_with_analysis() {
        // Spot checks: the dependence analysis agrees with the labels.
        let s000 = kernel("s000").unwrap();
        assert!(analyze_function(&s000.function()).trivially_vectorizable());
        let s212 = kernel("s212").unwrap();
        assert!(analyze_function(&s212.function()).has_loop_carried());
        let s278 = kernel("s278").unwrap();
        assert!(analyze_function(&s278.function()).has_goto);
        let vsumr = kernel("vsumr").unwrap();
        assert!(analyze_function(&vsumr.function()).only_reductions());
    }

    #[test]
    fn lookup_helpers() {
        assert!(kernel("s212").is_some());
        assert!(kernel("does-not-exist").is_none());
        assert!(suite_size() >= 60);
        assert!(suite_size() <= PAPER_SUITE_SIZE);
    }
}
