//! Runtime errors and undefined-behaviour events for the concrete interpreter.

use std::error::Error;
use std::fmt;

/// A kind of undefined or suspicious behaviour observed during execution.
///
/// Fatal kinds abort execution; non-fatal kinds are recorded in the
/// [`ExecReport`](crate::exec::ExecReport) so that the checksum harness and
/// the translation validator can reason about them (the paper's s124 example
/// shows a candidate whose bug is precisely a UB difference that concrete
/// testing misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UbKind {
    /// Out-of-bounds read from an array region.
    OobRead,
    /// Out-of-bounds write to an array region.
    OobWrite,
    /// Integer division or remainder by zero.
    DivByZero,
    /// `i32::MIN / -1` or `i32::MIN % -1`.
    DivOverflow,
    /// Shift amount outside `[0, 31]`.
    ShiftOutOfRange,
    /// Signed integer overflow in `+`, `-` or `*` (non-fatal: the value wraps,
    /// which is what optimized x86 code does, but the event is recorded).
    SignedOverflow,
}

impl UbKind {
    /// Whether this event aborts execution.
    pub fn is_fatal(self) -> bool {
        !matches!(self, UbKind::SignedOverflow)
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            UbKind::OobRead => "out-of-bounds read",
            UbKind::OobWrite => "out-of-bounds write",
            UbKind::DivByZero => "division by zero",
            UbKind::DivOverflow => "INT_MIN division overflow",
            UbKind::ShiftOutOfRange => "shift amount out of range",
            UbKind::SignedOverflow => "signed integer overflow",
        }
    }
}

impl fmt::Display for UbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A recorded undefined-behaviour event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UbEvent {
    /// What happened.
    pub kind: UbKind,
    /// Where it happened: array name and index, operands, etc.
    pub detail: UbDetail,
}

/// The context of a [`UbEvent`]; it displays as the event's context text.
///
/// A signed overflow does not stop the run and may happen on every loop
/// iteration, so it keeps its operands and is only formatted when shown:
/// recording one allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UbDetail {
    /// Free-form context: array name and index, operands, etc.
    Text(String),
    /// The overflowing operation `lhs op rhs`.
    Arith {
        /// The left operand.
        lhs: i32,
        /// The operator's C symbol.
        op: &'static str,
        /// The right operand.
        rhs: i32,
    },
    /// The overflowing negation of `i32::MIN`, with its operand.
    Negation(i32),
}

impl From<String> for UbDetail {
    fn from(text: String) -> UbDetail {
        UbDetail::Text(text)
    }
}

impl fmt::Display for UbDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UbDetail::Text(text) => f.write_str(text),
            UbDetail::Arith { lhs, op, rhs } => write!(f, "{} {} {}", lhs, op, rhs),
            UbDetail::Negation(v) => write!(f, "negation of {}", v),
        }
    }
}

impl fmt::Display for UbEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// An error that aborts interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A fatal undefined-behaviour event.
    Ub(UbEvent),
    /// The step budget was exhausted (runaway loop).
    StepLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// A dynamic type mismatch (e.g. indexing a scalar). These indicate a
    /// program that the type checker should have rejected.
    TypeMismatch(String),
    /// Reference to a variable that has no binding at runtime.
    UnboundVariable(String),
    /// A call to a function or intrinsic the interpreter cannot execute.
    UnknownCall(String),
    /// A `goto` whose label was not found on the control-flow path.
    MissingLabel(String),
    /// A required argument binding was not supplied by the caller.
    MissingArgument(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Ub(event) => write!(f, "undefined behaviour: {}", event),
            ExecError::StepLimitExceeded { limit } => {
                write!(f, "execution exceeded the step limit of {}", limit)
            }
            ExecError::TypeMismatch(msg) => write!(f, "runtime type mismatch: {}", msg),
            ExecError::UnboundVariable(name) => write!(f, "unbound variable `{}`", name),
            ExecError::UnknownCall(name) => write!(f, "cannot execute call to `{}`", name),
            ExecError::MissingLabel(name) => write!(f, "goto to missing label `{}`", name),
            ExecError::MissingArgument(name) => {
                write!(f, "no binding supplied for parameter `{}`", name)
            }
        }
    }
}

impl Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fatality_classification() {
        assert!(UbKind::OobRead.is_fatal());
        assert!(UbKind::OobWrite.is_fatal());
        assert!(UbKind::DivByZero.is_fatal());
        assert!(!UbKind::SignedOverflow.is_fatal());
    }

    #[test]
    fn display_formats() {
        let e = ExecError::Ub(UbEvent {
            kind: UbKind::OobRead,
            detail: "a[100] with region of length 100".to_string().into(),
        });
        assert_eq!(
            e.to_string(),
            "undefined behaviour: out-of-bounds read: a[100] with region of length 100"
        );
        let overflow = UbEvent {
            kind: UbKind::SignedOverflow,
            detail: UbDetail::Arith {
                lhs: i32::MAX,
                op: "+",
                rhs: 1,
            },
        };
        assert_eq!(
            overflow.to_string(),
            "signed integer overflow: 2147483647 + 1"
        );
        let negation = UbDetail::Negation(i32::MIN);
        assert_eq!(negation.to_string(), "negation of -2147483648");
        assert!(ExecError::StepLimitExceeded { limit: 10 }
            .to_string()
            .contains("step limit"));
        assert!(ExecError::UnboundVariable("x".into())
            .to_string()
            .contains("`x`"));
    }
}
