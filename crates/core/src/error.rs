//! Synthesis failure modes.

use std::error::Error;
use std::fmt;

/// Why synthesis stopped without a solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthError {
    /// Deadline exceeded (the experiment harness's per-run timeout).
    Timeout,
    /// The bounded search space was exhausted for one spec.
    NoSolution {
        /// Which spec could not be solved.
        spec: String,
    },
    /// Per-spec solutions exist but no merged program passes every spec.
    MergeFailed,
    /// The problem is malformed (no specs, bad arity, …).
    BadProblem(String),
    /// The synthesizer itself failed — a panic inside the search,
    /// contained at the job boundary and converted to a per-job error so
    /// one faulty job can never abort its batch (see
    /// [`crate::batch::run_batch`]).
    Internal(String),
}

impl SynthError {
    /// Converts a caught panic payload into [`SynthError::Internal`],
    /// preserving `&str`/`String` messages (the common cases).
    pub fn from_panic(panic: &(dyn std::any::Any + Send)) -> SynthError {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic".to_owned());
        SynthError::Internal(format!("job panicked: {msg}"))
    }
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Timeout => write!(f, "synthesis timed out"),
            SynthError::NoSolution { spec } => {
                write!(
                    f,
                    "no candidate satisfies spec {spec:?} within the search bounds"
                )
            }
            SynthError::MergeFailed => write!(f, "no merged program passes all specs"),
            SynthError::BadProblem(msg) => write!(f, "malformed synthesis problem: {msg}"),
            SynthError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl Error for SynthError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_concise() {
        assert_eq!(SynthError::Timeout.to_string(), "synthesis timed out");
        assert!(SynthError::NoSolution { spec: "s1".into() }
            .to_string()
            .contains("s1"));
    }
}
