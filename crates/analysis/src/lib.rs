//! # lv-analysis — loop and dependence analysis
//!
//! The LLM-Vectorizer pipeline consumes dependence information at three
//! points: the agent prompt includes Clang-style remarks explaining why the
//! loop is hard to vectorize, the baseline compiler models decide whether
//! auto-vectorization is legal, and the translation validator's spatial
//! splitting optimization requires proof that no loop-carried dependence
//! exists. This crate provides all three:
//!
//! * [`loops`] — canonical loop extraction ([`loop_nest`],
//!   [`CanonicalLoop`]);
//! * [`access`] — array-access and scalar-update extraction with affine
//!   subscript recognition ([`collect_accesses`]);
//! * [`dependence`] — flow/anti/output dependence analysis with distances
//!   ([`analyze_function`], [`DependenceReport`]);
//! * [`category`] — coarse kernel-shape buckets derived from the dependence
//!   report ([`categorize`], [`KernelCategory`]);
//! * [`remarks`] — compiler-style remark rendering for the agent prompt
//!   ([`remarks_text`]).
//!
//! # Examples
//!
//! ```
//! use lv_analysis::analyze_function;
//! use lv_cir::parse_function;
//!
//! let s212 = parse_function(
//!     "void s212(int n, int *a, int *b, int *c, int *d) {
//!          for (int i = 0; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; }
//!      }",
//! )?;
//! let report = analyze_function(&s212);
//! assert!(report.has_loop_carried());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod category;
pub mod dependence;
pub mod loops;
pub mod remarks;

pub use access::{
    collect_accesses, AccessKind, AffineIndex, ArrayAccess, BodyAccesses, ScalarUpdate,
};
pub use category::{categorize, KernelCategory};
pub use dependence::{analyze_function, analyze_loop, DepKind, Dependence, DependenceReport};
pub use loops::{canonicalize_for, loop_nest, CanonicalLoop, LoopNest, StepKind};
pub use remarks::{remarks_for, remarks_text, Remark};
