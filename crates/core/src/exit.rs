//! Process exit codes for synthesis outcomes, shared by `solve`,
//! `speccheck` and `specgen` so scripts and CI can tell failure classes
//! apart: `0` solved, `1` other failure (including contained panics), `2`
//! usage error, `3` spec parse/lower error, `4` timeout (cooperative or
//! hard deadline), `5` search exhausted without a program.

use crate::batch::BatchReport;
use crate::error::SynthError;

/// Everything synthesized (or, for `speccheck`, parsed) cleanly.
pub const OK: i32 = 0;
/// A failure outside the named classes (bad problem, panic, …).
pub const OTHER: i32 = 1;
/// Bad command line.
pub const USAGE: i32 = 2;
/// A `.rbspec` file failed to parse or lower.
pub const PARSE: i32 = 3;
/// Synthesis hit its deadline.
pub const TIMEOUT: i32 = 4;
/// The bounded search space was exhausted with no solution (no
/// per-spec solution, or no merged program passes every spec).
pub const NO_SOLUTION: i32 = 5;

/// The exit code for one synthesis error.
pub fn for_error(e: &SynthError) -> i32 {
    match e {
        SynthError::Timeout => TIMEOUT,
        SynthError::NoSolution { .. } | SynthError::MergeFailed => NO_SOLUTION,
        SynthError::BadProblem(_) | SynthError::Internal(_) => OTHER,
    }
}

/// The `"status"` word for a failed run in `--json` reports and trace
/// metadata, one per failure class: `timeout`, `no_solution` or `failed`
/// (a solved run is `solved`).
pub fn status(e: &SynthError) -> &'static str {
    match for_error(e) {
        TIMEOUT => "timeout",
        NO_SOLUTION => "no_solution",
        _ => "failed",
    }
}

/// The exit code for a whole batch: `OK` when every job solved, else
/// the most specific failing class (timeout before no-solution before
/// other), so CI logs name the dominant failure.
pub fn for_batch(report: &BatchReport) -> i32 {
    let codes: Vec<i32> = report
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().err().map(for_error))
        .collect();
    if codes.is_empty() {
        OK
    } else if codes.contains(&TIMEOUT) {
        TIMEOUT
    } else if codes.contains(&NO_SOLUTION) {
        NO_SOLUTION
    } else {
        OTHER
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchOutcome, BatchStats};
    use crate::synthesizer::{SynthResult, SynthStats};
    use rbsyn_lang::{builder::true_, Program, Symbol};
    use std::time::Duration;

    /// A report with one job per entry: `None` solved, `Some(e)` failed
    /// with `e`.
    fn report(jobs: &[Option<SynthError>]) -> BatchReport {
        let outcomes = jobs
            .iter()
            .enumerate()
            .map(|(i, e)| BatchOutcome {
                id: format!("j{i}"),
                result: match e {
                    None => Ok(SynthResult {
                        program: Program::from_parts(Symbol::intern("m"), vec![], true_()),
                        stats: SynthStats::default(),
                    }),
                    Some(e) => Err(e.clone()),
                },
                stats: SynthStats::default(),
                elapsed: Duration::ZERO,
            })
            .collect();
        BatchReport {
            outcomes,
            stats: BatchStats::default(),
        }
    }

    #[test]
    fn batch_code_names_the_dominant_failure() {
        let timeout = Some(SynthError::Timeout);
        let no_solution = Some(SynthError::NoSolution { spec: "s".into() });
        let internal = Some(SynthError::Internal("boom".into()));
        let all = [timeout, no_solution.clone(), internal.clone(), None];
        assert_eq!(for_batch(&report(&all)), TIMEOUT);
        assert_eq!(
            for_batch(&report(&[no_solution, internal.clone()])),
            NO_SOLUTION
        );
        assert_eq!(for_batch(&report(&[None, internal])), OTHER);
        assert_eq!(for_batch(&report(&[None, None])), OK);
    }

    #[test]
    fn status_names_each_failure_class() {
        assert_eq!(status(&SynthError::Timeout), "timeout");
        assert_eq!(status(&SynthError::MergeFailed), "no_solution");
        assert_eq!(
            status(&SynthError::NoSolution { spec: "s".into() }),
            "no_solution"
        );
        assert_eq!(status(&SynthError::Internal("boom".into())), "failed");
    }
}
