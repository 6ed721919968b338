//! # lv-interp — concrete execution and checksum testing
//!
//! The paper's pipeline runs the scalar kernel and the LLM-generated
//! vectorized candidate on random inputs and compares the outputs
//! ("checksum-based testing", Section 2.1). This crate provides the
//! executable substrate for that step:
//!
//! * [`exec`] — a concrete interpreter for mini-C with a region-based memory
//!   model ([`run_function`]);
//! * [`memory`] — runtime values, pointers and per-array regions with
//!   out-of-bounds detection;
//! * [`error`] — undefined-behaviour events ([`UbKind`]) mirroring the UB
//!   classes that matter for vectorization correctness;
//! * [`checksum`] — the random-testing harness ([`checksum_test`]) that
//!   classifies candidates as `Plausible`, `NotEquivalent` or
//!   `CannotCompile`, exactly like Table 2 of the paper.
//!
//! # Examples
//!
//! ```
//! use lv_interp::{checksum_test, ChecksumConfig};
//! use lv_cir::parse_function;
//!
//! let scalar = parse_function(
//!     "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
//! )?;
//! let report = checksum_test(&scalar, &scalar, &ChecksumConfig::default());
//! assert!(report.outcome.is_plausible());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod exec;
pub mod memory;

pub use checksum::{
    array_param_names_mismatch, checksum_test, ChecksumClass, ChecksumConfig, ChecksumFilter,
    ChecksumOutcome, ChecksumReport, Mismatch,
};
pub use error::{ExecError, UbDetail, UbEvent, UbKind};
pub use exec::{run_function, ArgBindings, ExecConfig, ExecReport, ExecResult};
pub use memory::{Memory, Pointer, RegionId, Value};
