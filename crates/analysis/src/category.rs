//! CIR-feature kernel categorization.
//!
//! [`categorize`] collapses the [`DependenceReport`](crate::DependenceReport)
//! of a kernel into one of four coarse [`KernelCategory`] buckets:
//! dependence-free, reduction, conditional, and everything else. The
//! categorization is a pure function of the scalar kernel's AST, so the
//! same kernel lands in the same bucket in every process.

use crate::dependence::analyze_function;
use lv_cir::ast::Function;
use std::fmt;

/// The coarse kernel shape buckets a [`categorize`] call sorts kernels into.
///
/// The buckets mirror how the paper's Table 3 funnel behaves per TSVC
/// category, collapsed to the distinctions the dependence analysis can make
/// reliably from the CIR alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelCategory {
    /// No loop-carried dependence, no reduction, no control flow: the
    /// trivially vectorizable element-wise loops.
    DependenceFree,
    /// Loops whose only loop-carried behavior is a scalar reduction.
    Reduction,
    /// Loops with `if`/ternary/`goto` control flow in the body.
    Conditional,
    /// Everything else: genuine loop-carried dependences, recurrences,
    /// opaque subscripts, or kernels with no recognizable loop.
    Other,
}

impl KernelCategory {
    /// All categories, in stable report order.
    pub fn all() -> [KernelCategory; 4] {
        [
            KernelCategory::DependenceFree,
            KernelCategory::Reduction,
            KernelCategory::Conditional,
            KernelCategory::Other,
        ]
    }

    /// Stable display tag.
    pub fn tag(self) -> &'static str {
        match self {
            KernelCategory::DependenceFree => "dependence-free",
            KernelCategory::Reduction => "reduction",
            KernelCategory::Conditional => "conditional",
            KernelCategory::Other => "other",
        }
    }
}

impl fmt::Display for KernelCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Buckets a kernel by its dependence report.
///
/// Control flow wins over everything (a guarded reduction schedules like a
/// conditional kernel — control flow is what decides which symbolic strategy
/// can even model it), then pure reductions, then trivially vectorizable
/// loops; anything the analysis cannot place cleanly is [`KernelCategory::Other`].
pub fn categorize(func: &Function) -> KernelCategory {
    let report = analyze_function(func);
    if report.has_control_flow || report.has_goto {
        KernelCategory::Conditional
    } else if report.only_reductions() {
        KernelCategory::Reduction
    } else if report.trivially_vectorizable() {
        KernelCategory::DependenceFree
    } else {
        KernelCategory::Other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;

    fn cat(src: &str) -> KernelCategory {
        categorize(&parse_function(src).unwrap())
    }

    #[test]
    fn canonical_shapes_bucket_as_expected() {
        assert_eq!(
            cat("void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }"),
            KernelCategory::DependenceFree
        );
        assert_eq!(
            cat("void vsumr(int n, int *a, int *out) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } out[0] = s; }"),
            KernelCategory::Reduction
        );
        assert_eq!(
            cat("void s2711(int n, int *a, int *b) { for (int i = 0; i < n; i++) { if (b[i] != 0) { a[i] = a[i] + b[i]; } } }"),
            KernelCategory::Conditional
        );
        assert_eq!(
            cat("void s212(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }"),
            KernelCategory::Other
        );
        // No loop at all: nothing to schedule around.
        assert_eq!(
            cat("void f(int n, int *a) { a[0] = n; }"),
            KernelCategory::Other
        );
    }

    #[test]
    fn guarded_reduction_is_conditional() {
        assert_eq!(
            cat("void s3111(int n, int *a, int *out) { int s = 0; for (int i = 0; i < n; i++) { if (a[i] > 0) { s += a[i]; } } out[0] = s; }"),
            KernelCategory::Conditional
        );
    }

    #[test]
    fn tags_round_trip_and_stay_stable() {
        let tags: Vec<&str> = KernelCategory::all().iter().map(|c| c.tag()).collect();
        assert_eq!(
            tags,
            ["dependence-free", "reduction", "conditional", "other"],
            "tags are pinned"
        );
        assert_eq!(KernelCategory::Reduction.to_string(), "reduction");
    }

    #[test]
    fn categorization_is_stable_over_the_suite_shapes() {
        // Every category tag is distinct; the bucket order used by reports
        // matches `all()`.
        let mut tags: Vec<&str> = KernelCategory::all().iter().map(|c| c.tag()).collect();
        tags.dedup();
        assert_eq!(tags.len(), 4);
    }
}
