//! The search scheduler: the deadline, tracing and statistics
//! aggregation for one synthesis run.
//!
//! A [`Scheduler`] is the per-run bundle every search phase consults:
//!
//! * the **deadline** ([`Options::timeout`](crate::Options) materialized
//!   as an [`Instant`]), polled by the work-list loop through
//!   [`Scheduler::should_stop`]. The run's *hard* deadline is not here:
//!   the interpreter checks it mid-candidate (see
//!   [`GRACE`](crate::synthesizer::GRACE));
//! * the **tracing session**, when `--trace` is on.
//!
//! Effort counters live in [`SearchStats`], which only the run's own
//! thread updates, so they are a pure function of the work performed —
//! never of thread interleaving.

use rbsyn_trace::Session;
use std::time::Instant;

/// Search-effort counters, accumulated across the `generate` calls of one
/// synthesis run.
///
/// The effort counters (`popped`, `expanded`, `tested`, `deduped`,
/// `vector_hits`) are a pure function of the problem: a run
/// searches on one thread and shares no search state with other batch
/// jobs, so they are identical across batch thread counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Work-list pops. An entry that type narrowing or the dedup filter
    /// drops when it reaches the front is not a pop.
    pub popped: u64,
    /// Candidate expressions produced by expansion (pre type-filter).
    pub expanded: u64,
    /// Evaluable candidates judged by the oracle.
    /// In the guard pool a candidate counts once — when its evaluation
    /// vector gains its first bits; a later request that *widens* an
    /// existing vector with more spec bits adds interpreter runs but no
    /// count (it is neither a fresh judgement nor a pure
    /// [`vector_hits`](Self::vector_hits) answer).
    pub tested: u64,
    /// Duplicate candidates dropped by the dedup filter: a partial one
    /// when it reaches the front of the work-list (one behind the point
    /// where the search stops is never built, so never counted), an
    /// evaluable one when expansion produces it.
    pub deduped: u64,
    /// Guard-covering requests answered purely from already-computed
    /// pass/fail bitvectors — no interpreter run (see
    /// [`GuardPool`](crate::guards::GuardPool)).
    pub vector_hits: u64,
    /// Always 0: the observational-equivalence pruning this counted is
    /// gone. Kept because synthbench reads it.
    pub obs_pruned: u64,
    /// Always 0: the run-scoped expansion memo these counted hits of is
    /// gone. Kept because synthbench reads it.
    pub expand_hits: u64,
    /// Always 0: the run-scoped type memo these counted hits of is gone.
    /// Kept because synthbench reads it.
    pub type_hits: u64,
    /// Always 0: the run-scoped oracle memo these counted hits of is
    /// gone. Kept because synthbench reads it.
    pub oracle_hits: u64,
    /// Wall-clock nanoseconds spent running the interpreter-backed oracle
    /// (candidate tests, guard bit evaluation, merged-program validation).
    /// Timing, not effort: varies run to run.
    pub eval_nanos: u64,
}

impl SearchStats {
    /// The effort counters as named series for a trace counter sample
    /// (the `search-stats` track of `--trace` exports).
    pub fn counter_sample(&self) -> [(&'static str, u64); 5] {
        [
            ("popped", self.popped),
            ("expanded", self.expanded),
            ("tested", self.tested),
            ("deduped", self.deduped),
            ("vector_hits", self.vector_hits),
        ]
    }

    /// The effort counters `(popped, expanded, tested, deduped,
    /// vector_hits)` — the tuple the determinism gates compare across
    /// batch widths and tracing. They are pure functions of the problem.
    pub fn effort(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.popped,
            self.expanded,
            self.tested,
            self.deduped,
            self.vector_hits,
        )
    }
}

/// Per-run search coordination: deadline and tracing session (see the
/// [module docs](self)).
#[derive(Clone, Default)]
pub struct Scheduler {
    deadline: Option<Instant>,
    trace: Option<Session>,
}

impl Scheduler {
    /// A scheduler with a deadline (`None`: no deadline).
    pub fn new(deadline: Option<Instant>) -> Scheduler {
        Scheduler {
            deadline,
            trace: None,
        }
    }

    /// A bare scheduler: no deadline, no tracing. What tests and one-off
    /// `generate` calls use.
    pub fn sequential() -> Scheduler {
        Scheduler::default()
    }

    /// Attaches a tracing session; every search phase holding this
    /// scheduler records through it. `None` (the default) keeps each
    /// instrumentation site to a single `Option` check.
    pub fn with_trace(mut self, trace: Option<Session>) -> Scheduler {
        self.trace = trace;
        self
    }

    /// The run's deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The run's tracing session, when `Options::trace` is active.
    pub fn trace(&self) -> Option<&Session> {
        self.trace.as_ref()
    }

    /// Deadline poll, called by the work-list loop at its check cadence.
    pub fn should_stop(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn should_stop_covers_deadline() {
        assert!(!Scheduler::sequential().should_stop());
        let past = Instant::now() - Duration::from_secs(1);
        assert!(Scheduler::new(Some(past)).should_stop());
        let future = Instant::now() + Duration::from_secs(600);
        assert!(!Scheduler::new(Some(future)).should_stop());
    }
}
