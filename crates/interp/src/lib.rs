//! # lv-interp — concrete execution and checksum testing
//!
//! The paper's pipeline runs the scalar kernel and the LLM-generated
//! vectorized candidate on random inputs and compares the outputs
//! ("checksum-based testing", Section 2.1). This crate provides the
//! executable substrate for that step:
//!
//! * [`exec`] — a concrete interpreter for mini-C with a region-based memory
//!   model ([`run_function`]). Arguments bind by parameter position
//!   ([`ArgBindings`]) and the final arrays come back by position
//!   ([`ExecResult`]), so no parameter name is looked up or copied;
//! * [`memory`] — runtime values, pointers and per-array regions with
//!   out-of-bounds detection;
//! * [`error`] — undefined-behaviour events ([`UbKind`]) mirroring the UB
//!   classes that matter for vectorization correctness;
//! * [`checksum`] — the random-testing harness ([`checksum_test`]) that
//!   classifies candidates as `Plausible`, `NotEquivalent` or
//!   `CannotCompile`, exactly like Table 2 of the paper. It is split into a
//!   [`ScalarReference`] (the scalar's seeded inputs and outputs, built once
//!   per kernel and configuration) and [`ScalarReference::test`] (one
//!   candidate against it); a candidate whose parameter list differs from
//!   the scalar's in length or type is `CannotCompile`.
//!
//! # Examples
//!
//! ```
//! use lv_interp::{checksum_test, ChecksumConfig, ScalarReference};
//! use lv_cir::parse_function;
//!
//! let scalar = parse_function(
//!     "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
//! )?;
//! let report = checksum_test(&scalar, &scalar, &ChecksumConfig::default());
//! assert!(report.outcome.is_plausible());
//!
//! // Many candidates of one kernel share the scalar's half of the test.
//! let reference = ScalarReference::new(&scalar, &ChecksumConfig::default());
//! let renamed = parse_function(
//!     "void s000(int m, int *x, int *y) { for (int i = 0; i < m; i++) { x[i] = y[i] + 1; } }",
//! )?;
//! assert!(reference.test(&renamed).outcome.is_plausible());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod exec;
pub mod memory;

pub use checksum::{
    checksum_test, ChecksumClass, ChecksumConfig, ChecksumOutcome, ChecksumReport, Mismatch,
    ScalarReference,
};
pub use error::{ExecError, UbDetail, UbEvent, UbKind};
pub use exec::{run_function, Arg, ArgBindings, ExecConfig, ExecReport, ExecResult};
pub use memory::{Memory, Pointer, RegionId, Value};
