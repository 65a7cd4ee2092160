//! The search scheduler: deadlines, cancellation, cache handles, task
//! dispatch and statistics aggregation for one synthesis run.
//!
//! A [`Scheduler`] is the per-run bundle every search phase consults:
//!
//! * the **deadline** ([`Options::timeout`](crate::Options) materialized
//!   as an [`Instant`]) and a cooperative **cancellation token** (set when
//!   a speculative task's result turned out not to be needed) — both
//!   polled by the work-list loop through [`Scheduler::should_stop`];
//! * the **memoization handle** ([`CacheHandle`]) shared by every phase of
//!   the run (or `None` for an uncached run);
//! * the optional **executor** plus the `intra_parallelism` width, through
//!   which per-spec searches and merge-time guard searches are dispatched
//!   as concurrent tasks.
//!
//! Statistics from concurrent tasks are folded with
//! [`SearchStats::absorb`] in a deterministic order chosen by the caller
//! (spec order, guard-request order), with saturating arithmetic, so
//! aggregate counters are a pure function of the work performed — never of
//! thread interleaving.

use crate::cache::CacheHandle;
use crate::engine::executor::Executor;
use rbsyn_trace::Session;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Search-effort counters, accumulated across the `generate` calls of one
/// synthesis run.
///
/// The effort counters (`popped`, `expanded`, `tested`, `deduped`) count
/// *requests*, not computations: a memo hit still counts, so they are
/// identical with and without caching — and identical across
/// `intra_parallelism` settings, because speculative work whose result is
/// discarded is never folded in. The cache counters (`*_hits`) measure how
/// much of that work the [`CacheHandle`] absorbed and legitimately vary
/// with cache state and thread interleaving.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Work-list pops.
    pub popped: u64,
    /// Candidate expressions produced by expansion (pre type-filter).
    pub expanded: u64,
    /// Evaluable candidates judged by the oracle (memo hits included).
    /// In the guard pool a candidate counts once — when its evaluation
    /// vector gains its first bits; a later request that *widens* an
    /// existing vector with more spec bits adds interpreter runs but no
    /// count (it is neither a fresh judgement nor a pure
    /// [`vector_hits`](Self::vector_hits) answer).
    pub tested: u64,
    /// Duplicate candidates dropped by the work-list dedup filter.
    pub deduped: u64,
    /// Frontier items pruned by observational-equivalence dedup: their
    /// evaluation vector matched an already-enqueued candidate of equal or
    /// smaller size, so their whole subtree was skipped. Deterministic for
    /// a fixed [`Options::obs_equiv`](crate::Options) setting (and zero
    /// when it is off).
    pub obs_pruned: u64,
    /// Guard-covering requests answered purely from already-computed
    /// pass/fail bitvectors — no interpreter run (see
    /// [`GuardPool`](crate::guards::GuardPool)).
    pub vector_hits: u64,
    /// Expansion lists answered from the memo.
    pub expand_hits: u64,
    /// Type-check verdicts answered from the memo.
    pub type_hits: u64,
    /// Oracle verdicts answered from the memo.
    pub oracle_hits: u64,
    /// Wall-clock nanoseconds spent running the interpreter-backed oracle
    /// on this thread (candidate tests, guard bit evaluation, merged-
    /// program validation). Timing, not effort: varies run to run.
    pub eval_nanos: u64,
}

impl SearchStats {
    /// Folds another task's counters into this one with saturating adds.
    /// Callers absorb task-local stats in a deterministic order (spec
    /// order, guard-request order) so aggregates do not depend on thread
    /// scheduling.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.popped = self.popped.saturating_add(other.popped);
        self.expanded = self.expanded.saturating_add(other.expanded);
        self.tested = self.tested.saturating_add(other.tested);
        self.deduped = self.deduped.saturating_add(other.deduped);
        self.obs_pruned = self.obs_pruned.saturating_add(other.obs_pruned);
        self.vector_hits = self.vector_hits.saturating_add(other.vector_hits);
        self.expand_hits = self.expand_hits.saturating_add(other.expand_hits);
        self.type_hits = self.type_hits.saturating_add(other.type_hits);
        self.oracle_hits = self.oracle_hits.saturating_add(other.oracle_hits);
        self.eval_nanos = self.eval_nanos.saturating_add(other.eval_nanos);
    }

    /// The effort counters as named series for a trace counter sample
    /// (the `search-stats` track of `--trace` exports).
    pub fn counter_sample(&self) -> [(&'static str, u64); 6] {
        [
            ("popped", self.popped),
            ("expanded", self.expanded),
            ("tested", self.tested),
            ("deduped", self.deduped),
            ("obs_pruned", self.obs_pruned),
            ("vector_hits", self.vector_hits),
        ]
    }

    /// The cache-independent effort counters `(popped, expanded, tested,
    /// deduped, obs_pruned, vector_hits)` — the tuple the determinism gates
    /// compare across thread counts and cache settings. Pruning and
    /// guard-covering counters are included: for a fixed
    /// [`Options::obs_equiv`](crate::Options) setting they are pure
    /// functions of the problem, never of width or cache state.
    pub fn effort(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.popped,
            self.expanded,
            self.tested,
            self.deduped,
            self.obs_pruned,
            self.vector_hits,
        )
    }
}

/// Per-run search coordination: deadline, cancellation, cache handle and
/// task dispatch (see the [module docs](self)).
#[derive(Clone, Default)]
pub struct Scheduler {
    deadline: Option<Instant>,
    cache: Option<CacheHandle>,
    executor: Option<Arc<Executor>>,
    intra: usize,
    cancel: Option<Arc<AtomicBool>>,
    kill: Option<Arc<AtomicBool>>,
    trace: Option<Session>,
}

impl Scheduler {
    /// A scheduler with a deadline and a memoization handle (either may be
    /// absent). No executor: every search runs inline on the caller's
    /// thread.
    pub fn new(deadline: Option<Instant>, cache: Option<CacheHandle>) -> Scheduler {
        Scheduler {
            deadline,
            cache,
            executor: None,
            intra: 1,
            cancel: None,
            kill: None,
            trace: None,
        }
    }

    /// A bare scheduler: no deadline, no shared cache, no executor. What
    /// tests and one-off `generate` calls use.
    pub fn sequential() -> Scheduler {
        Scheduler::default()
    }

    /// Replaces the memoization handle — used by parallel searches to
    /// materialize the throwaway private cache *outside* their worker
    /// scope so workers can share it (an uncached sequential search builds
    /// the same private cache internally).
    pub fn with_cache(mut self, cache: CacheHandle) -> Scheduler {
        self.cache = Some(cache);
        self
    }

    /// Attaches an executor and the intra-problem task width. A width of 1
    /// (or `None`) keeps every phase inline and byte-identical to the
    /// sequential pipeline by construction.
    pub fn with_executor(mut self, executor: Option<Arc<Executor>>, intra: usize) -> Scheduler {
        self.executor = executor;
        self.intra = intra.max(1);
        self
    }

    /// Attaches a tracing session; every search phase holding this
    /// scheduler records through it. `None` (the default) keeps each
    /// instrumentation site to a single `Option` check.
    pub fn with_trace(mut self, trace: Option<Session>) -> Scheduler {
        self.trace = trace;
        self
    }

    /// Attaches a watchdog kill flag (see
    /// [`Watchdog`](super::Watchdog)): once set, [`should_stop`]
    /// reports `true` regardless of the cooperative deadline.
    ///
    /// [`should_stop`]: Scheduler::should_stop
    pub fn with_kill(mut self, kill: Arc<AtomicBool>) -> Scheduler {
        self.kill = Some(kill);
        self
    }

    /// A task-local scheduler for a spawned search: same deadline, cache,
    /// oracle width and tracing session, a private cancellation token,
    /// and *no* executor (tasks do not spawn sub-tasks — but their
    /// searches may still fan out oracle batches at the run's width).
    pub fn for_task(&self, cancel: Arc<AtomicBool>) -> Scheduler {
        Scheduler {
            deadline: self.deadline,
            cache: self.cache.clone(),
            executor: None,
            intra: self.intra,
            cancel: Some(cancel),
            kill: self.kill.clone(),
            trace: self.trace.clone(),
        }
    }

    /// The run's deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The run's memoization handle, if caching is enabled.
    pub fn cache(&self) -> Option<&CacheHandle> {
        self.cache.as_ref()
    }

    /// The executor intra-problem tasks run on, when parallel dispatch is
    /// enabled.
    pub fn executor(&self) -> Option<&Arc<Executor>> {
        if self.intra > 1 {
            self.executor.as_ref()
        } else {
            None
        }
    }

    /// Width for in-search speculative evaluation
    /// ([`crate::engine::SpeculationPool`]). Needs no executor — the pool
    /// uses scoped threads of its own — so spawned task searches keep the
    /// run's width.
    pub fn oracle_width(&self) -> usize {
        self.intra.max(1)
    }

    /// The run's tracing session, when `Options::trace` is active.
    pub fn trace(&self) -> Option<&Session> {
        self.trace.as_ref()
    }

    /// Has this search been cancelled (its speculative result is no longer
    /// needed)?
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Deadline-or-cancellation poll, called by the work-list loop at its
    /// check cadence. Also honours the watchdog kill flag, which only
    /// ever fires *after* the cooperative deadline.
    pub fn should_stop(&self) -> bool {
        if self.cancelled() {
            return true;
        }
        if self
            .kill
            .as_ref()
            .is_some_and(|k| k.load(Ordering::Relaxed))
        {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn absorb_saturates() {
        let mut a = SearchStats {
            popped: u64::MAX - 1,
            ..SearchStats::default()
        };
        let b = SearchStats {
            popped: 5,
            tested: 3,
            ..SearchStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.popped, u64::MAX);
        assert_eq!(a.tested, 3);
        assert_eq!(a.effort(), (u64::MAX, 0, 3, 0, 0, 0));
    }

    #[test]
    fn should_stop_covers_deadline_and_cancel() {
        assert!(!Scheduler::sequential().should_stop());
        let past = Instant::now() - Duration::from_secs(1);
        assert!(Scheduler::new(Some(past), None).should_stop());
        let future = Instant::now() + Duration::from_secs(600);
        let sched = Scheduler::new(Some(future), None);
        assert!(!sched.should_stop());
        let token = Arc::new(AtomicBool::new(false));
        let task = sched.for_task(Arc::clone(&token));
        assert!(!task.should_stop());
        token.store(true, Ordering::Relaxed);
        assert!(task.should_stop());
    }

    #[test]
    fn executor_dispatch_requires_an_executor() {
        let bare = Scheduler::sequential().with_executor(None, 4);
        assert!(bare.executor().is_none());
        assert_eq!(bare.oracle_width(), 4, "speculation needs no executor");
        let exec = Executor::new();
        let sched = Scheduler::sequential().with_executor(Some(exec), 4);
        assert!(sched.executor().is_some());
        // Task-local schedulers never dispatch further executor tasks but
        // keep the run's speculation width.
        let t = sched.for_task(Arc::new(AtomicBool::new(false)));
        assert!(t.executor().is_none());
        assert_eq!(t.oracle_width(), 4);
    }
}
