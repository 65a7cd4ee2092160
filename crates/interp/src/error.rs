//! Runtime errors.
//!
//! These correspond to Ruby exceptions a candidate program can raise while
//! a spec runs (`NoMethodError` on `nil`, argument mismatches, …). A
//! candidate that raises during setup is simply rejected by the search; the
//! paper's type narrowing (§3.1) exists precisely to prune most of these
//! before execution.

use rbsyn_lang::Symbol;
use std::error::Error;
use std::fmt;

/// A runtime error raised while evaluating λ_syn code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// No method `name` on an instance/class of `class_name` (Ruby
    /// `NoMethodError`; the `nil` receiver case is the common one).
    NoMethod {
        /// Receiver class name (e.g. `NilClass`).
        class_name: String,
        /// Method that was called.
        name: Symbol,
    },
    /// Method called with the wrong number of arguments.
    ArgCount {
        /// Method that was called.
        name: Symbol,
        /// Declared arity.
        expected: usize,
        /// Actual argument count.
        got: usize,
    },
    /// Method called with an argument of an unexpected shape (Ruby
    /// `TypeError`).
    TypeMismatch {
        /// Method that was called.
        name: Symbol,
        /// Human-readable description of what was expected.
        expected: &'static str,
    },
    /// Unbound variable (should not happen for well-formed candidates).
    UnboundVar(Symbol),
    /// A hole reached the evaluator (a bug in the caller: only `evaluable`
    /// candidates may be run).
    HoleEvaluated,
    /// Evaluation step budget exhausted (guards against pathological
    /// candidates).
    FuelExhausted,
    /// Evaluation was interrupted at the run's hard deadline: it passed
    /// while this candidate was still executing, so the evaluator aborted
    /// it mid-run (checked every
    /// [`crate::eval::INTERRUPT_CHECK_STRIDE`] steps). The search treats
    /// the candidate as rejected and stops at its next deadline poll.
    Interrupted,
    /// ActiveRecord-style record-not-found and validation failures.
    RecordError(String),
    /// Anything else a native method wants to raise.
    Other(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoMethod { class_name, name } => {
                write!(f, "undefined method `{name}` for {class_name}")
            }
            RuntimeError::ArgCount {
                name,
                expected,
                got,
            } => {
                write!(
                    f,
                    "wrong number of arguments to `{name}` (given {got}, expected {expected})"
                )
            }
            RuntimeError::TypeMismatch { name, expected } => {
                write!(f, "type mismatch in `{name}`: expected {expected}")
            }
            RuntimeError::UnboundVar(x) => write!(f, "undefined local variable `{x}`"),
            RuntimeError::HoleEvaluated => write!(f, "attempted to evaluate a hole"),
            RuntimeError::FuelExhausted => write!(f, "evaluation step budget exhausted"),
            RuntimeError::Interrupted => write!(f, "evaluation interrupted at the hard deadline"),
            RuntimeError::RecordError(msg) => write!(f, "record error: {msg}"),
            RuntimeError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RuntimeError::NoMethod {
            class_name: "NilClass".into(),
            name: Symbol::intern("title"),
        };
        assert_eq!(e.to_string(), "undefined method `title` for NilClass");
        let a = RuntimeError::ArgCount {
            name: Symbol::intern("m"),
            expected: 1,
            got: 2,
        };
        assert!(a.to_string().contains("given 2, expected 1"));
        assert!(RuntimeError::UnboundVar(Symbol::intern("x"))
            .to_string()
            .contains("`x`"));
    }
}
