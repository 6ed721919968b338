//! # lv-cir — mini-C front end for the LLM-Vectorizer reproduction
//!
//! This crate implements the small C subset that the LLM-Vectorizer pipeline
//! operates on: the scalar TSVC kernels that go *into* the vectorizer and the
//! AVX2-intrinsic candidates that come *out* of it.
//!
//! The crate provides:
//!
//! * an [`ast`] module with a span-free, structurally comparable AST;
//! * a [`lexer`] and recursive-descent [`parser`] ([`parse_program`],
//!   [`parse_function`], [`parse_expr`]);
//! * a [`printer`] that renders the AST back to C source
//!   ([`print_function`], [`print_function_into`], [`print_program`]);
//! * a [`typecheck`] pass that plays the role of "does the candidate
//!   compile" in the pipeline ([`type_check`], [`compiles`]);
//! * an [`intrinsics`] signature table for the supported AVX2 intrinsics;
//! * [`visit`] traversal/rewriting helpers and [`builder`] construction
//!   helpers used by the other crates;
//! * a [`hash`] module computing the alpha-renaming-insensitive
//!   [`structural_hash`] that keys the engine's persistent verdict cache.
//!
//! # Examples
//!
//! ```
//! use lv_cir::{parse_function, print_function, type_check};
//!
//! let func = parse_function(
//!     "void s000(int n, int *a, int *b) {
//!          for (int i = 0; i < n; i++) { a[i] = b[i] + 1; }
//!      }",
//! )?;
//! let info = type_check(&func)?;
//! assert_eq!(info.var_type("a"), Some(&lv_cir::Type::int_ptr()));
//! assert!(print_function(&func).contains("b[i] + 1"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod error;
pub mod hash;
pub mod intrinsics;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod typecheck;
pub mod visit;

pub use ast::{AssignOp, BinOp, Block, Expr, Function, Param, Program, Stmt, Type, UnOp};
pub use error::{ParseError, Pos, TypeError};
pub use hash::{structural_hash, Fnv64};
pub use intrinsics::{intrinsic_sig, is_intrinsic, IntrinsicSig, IntrinsicType, VECTOR_WIDTH};
pub use parser::{parse_expr, parse_function, parse_program};
pub use printer::{print_expr, print_function, print_function_into, print_program, print_stmt};
pub use typecheck::{check_types, compiles, type_check, TypeInfo};
