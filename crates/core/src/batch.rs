//! Parallel batch synthesis: run many independent synthesis problems
//! concurrently with per-problem deadlines and deterministic result
//! ordering.
//!
//! Per-spec search is embarrassingly parallel across *problems*: every job
//! builds its own environment (class table + fresh world) and searches in
//! its own node arenas, so jobs share no mutable state but the global
//! symbol interner, whose symbols order by their text. A job's result is
//! therefore the same on any thread, in any batch, at any width.
//!
//! The driver runs:
//!
//! * `threads` scoped job threads, each claiming whole jobs from an atomic
//!   cursor (work-stealing across skewed job costs). A job runs on the
//!   thread that claimed it;
//! * results land in a slot indexed by submission order, so the output is
//!   **byte-identical** no matter the thread count;
//! * a panicking job is caught and reported as that job's failure
//!   ([`SynthError::Internal`], exit code 1); it never poisons its
//!   siblings. Containment is layered: the job body is wrapped in
//!   `catch_unwind` inside [`BatchJob::run`], the whole claim/run/store
//!   iteration of each scoped worker is wrapped again (so even a panic in
//!   the driver's own bookkeeping converts to a per-job failure), and the
//!   final slot collection recovers poisoned locks and backfills missing
//!   outcomes instead of aborting the process;
//! * each job's deadline comes from its own [`Options::timeout`], so one
//!   problem exhausting its budget cannot starve another.
//!
//! The job threads are the only threads synthesis starts: a run
//! enforces its deadlines by reading the clock on its own thread.
//!
//! The experiment harness (`rbsyn-bench`) layers Table 1 / suite reporting
//! on top of this; the driver itself is suite-agnostic.

use crate::error::SynthError;
use crate::goal::SynthesisProblem;
use crate::options::Options;
use crate::synthesizer::{SynthResult, Synthesizer};
use rbsyn_interp::InterpEnv;
use rbsyn_lang::contention;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Builds a fresh environment + problem for one job. Called once per run,
/// on the worker thread that claimed the job.
pub type JobBuilder = Box<dyn Fn() -> (InterpEnv, SynthesisProblem) + Send + Sync>;

/// One independent synthesis task in a batch.
pub struct BatchJob {
    /// Stable identifier (benchmark id, ticket id, …) used in reports.
    pub id: String,
    /// Environment + problem factory; must not capture shared mutable
    /// state.
    pub build: JobBuilder,
    /// Per-job options; `options.timeout` is this job's private deadline.
    pub options: Options,
}

impl BatchJob {
    /// Convenience constructor.
    pub fn new(
        id: impl Into<String>,
        build: impl Fn() -> (InterpEnv, SynthesisProblem) + Send + Sync + 'static,
        options: Options,
    ) -> BatchJob {
        BatchJob {
            id: id.into(),
            build: Box::new(build),
            options,
        }
    }

    /// Runs this job once on the current thread — what [`run_batch`] does
    /// for every job. A panic in the job body becomes
    /// [`SynthError::Internal`].
    pub fn run(&self) -> BatchOutcome {
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            rbsyn_lang::failpoint::hit("batch::claim");
            let (env, problem) = (self.build)();
            Synthesizer::new(env, problem, self.options.clone()).run()
        }))
        .unwrap_or_else(|panic| Err(SynthError::from_panic(&*panic)));
        BatchOutcome {
            id: self.id.clone(),
            result,
            elapsed: started.elapsed(),
        }
    }
}

/// Batch-wide execution policy. It has no settings; it remains, with
/// [`run_batch_with`], because synthbench passes
/// `&BatchPolicy::default()` to that function.
#[derive(Clone, Default)]
pub struct BatchPolicy {}

/// The result of one batch job.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The job's identifier.
    pub id: String,
    /// Synthesis result or failure.
    pub result: Result<SynthResult, SynthError>,
    /// Wall-clock time this job took on its worker thread.
    pub elapsed: Duration,
}

impl BatchOutcome {
    /// Did synthesis produce a program?
    pub fn solved(&self) -> bool {
        self.result.is_ok()
    }

    /// Did the job die on its own deadline?
    pub fn timed_out(&self) -> bool {
        matches!(self.result, Err(SynthError::Timeout))
    }
}

/// Aggregate statistics over a whole batch (the batch-level analogue of
/// [`crate::SynthStats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that synthesized a program.
    pub solved: usize,
    /// Jobs that hit their deadline.
    pub timeouts: usize,
    /// Jobs that failed for any other reason (including contained
    /// panics).
    pub failures: usize,
    /// Jobs whose panic was contained at the job boundary
    /// ([`SynthError::Internal`]); a subset of `failures`.
    pub panics: usize,
    /// Candidates tested across all jobs (solved jobs report their search
    /// counters; failed jobs contribute nothing — their stats die with the
    /// error).
    pub tested: u64,
    /// Candidate expansions across all solved jobs.
    pub expanded: u64,
    /// Work-list pops across all solved jobs.
    pub popped: u64,
    /// Duplicate candidates dropped by the work-list dedup filter (solved
    /// jobs).
    pub deduped: u64,
    /// Guard requests answered purely from pass/fail bitvectors (solved
    /// jobs).
    pub vector_hits: u64,
    /// Always 0, as [`SearchStats::obs_pruned`](crate::SearchStats).
    /// Kept because synthbench reads it.
    pub obs_pruned: u64,
    /// Always 0, as [`SearchStats::expand_hits`](crate::SearchStats).
    /// Kept because synthbench reads it.
    pub expand_hits: u64,
    /// Always 0, as [`SearchStats::type_hits`](crate::SearchStats).
    /// Kept because synthbench reads it.
    pub type_hits: u64,
    /// Always 0, as [`SearchStats::oracle_hits`](crate::SearchStats).
    /// Kept because synthbench reads it.
    pub oracle_hits: u64,
    /// Phase-1 per-spec search time summed over solved jobs.
    pub generate_time: Duration,
    /// Merge-time guard search time summed over solved jobs.
    pub guard_time: Duration,
    /// Merge rewrite/validation time (guard search excluded) summed over
    /// solved jobs.
    pub merge_time: Duration,
    /// Interpreter/oracle wall time summed over solved jobs (the `eval`
    /// slice of the phase breakdown).
    pub eval_time: Duration,
    /// Wall-clock time of the whole batch.
    pub wall_clock: Duration,
    /// Sum of per-job wall-clock times — the sequential-run estimate.
    pub cpu_time: Duration,
    /// Job threads the batch ran on.
    pub threads: usize,
}

impl BatchStats {
    /// Parallel speedup: total per-job time over batch wall-clock. With one
    /// thread this is ~1.0 by construction; with N threads and enough jobs
    /// it approaches N (scheduling overhead and core contention permitting).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_clock.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.cpu_time.as_secs_f64() / wall
    }
}

/// Outcomes (in submission order) plus aggregate statistics.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One outcome per job, index-aligned with the submitted jobs.
    pub outcomes: Vec<BatchOutcome>,
    /// Aggregates.
    pub stats: BatchStats,
}

fn aggregate(outcomes: Vec<BatchOutcome>, wall: Duration, threads: usize) -> BatchReport {
    let mut stats = BatchStats {
        jobs: outcomes.len(),
        wall_clock: wall,
        threads,
        ..BatchStats::default()
    };
    for o in &outcomes {
        stats.cpu_time += o.elapsed;
        match &o.result {
            Ok(r) => {
                stats.solved += 1;
                // Saturating folds of per-job totals.
                stats.tested = stats.tested.saturating_add(r.stats.search.tested);
                stats.expanded = stats.expanded.saturating_add(r.stats.search.expanded);
                stats.popped = stats.popped.saturating_add(r.stats.search.popped);
                stats.deduped = stats.deduped.saturating_add(r.stats.search.deduped);
                stats.vector_hits = stats.vector_hits.saturating_add(r.stats.search.vector_hits);
                stats.expand_hits = stats.expand_hits.saturating_add(r.stats.search.expand_hits);
                stats.type_hits = stats.type_hits.saturating_add(r.stats.search.type_hits);
                stats.oracle_hits = stats.oracle_hits.saturating_add(r.stats.search.oracle_hits);
                stats.generate_time += r.stats.generate_time;
                stats.guard_time += r.stats.guard_time;
                stats.merge_time += r.stats.merge_time;
                stats.eval_time += Duration::from_nanos(r.stats.search.eval_nanos);
            }
            Err(SynthError::Timeout) => stats.timeouts += 1,
            Err(SynthError::Internal(_)) => {
                stats.failures += 1;
                stats.panics += 1;
            }
            Err(_) => stats.failures += 1,
        }
    }
    BatchReport { outcomes, stats }
}

/// Runs `jobs` on `threads` job threads (`0` = all available cores).
///
/// Outcomes are returned in submission order regardless of completion
/// order, and every job runs under its own [`Options::timeout`] deadline —
/// the report of a batch is a pure function of the jobs, not of the
/// machine's scheduling.
///
/// # Example
///
/// ```
/// use rbsyn_core::{run_batch, BatchJob, Options, SynthesisProblem};
/// use rbsyn_interp::{SetupStep, Spec};
/// use rbsyn_lang::builder::*;
/// use rbsyn_lang::Ty;
/// use rbsyn_stdlib::EnvBuilder;
///
/// let job = |id: &str| {
///     BatchJob::new(
///         id,
///         || {
///             let env = EnvBuilder::with_stdlib().finish();
///             let problem = SynthesisProblem::builder("m")
///                 .returns(Ty::Bool)
///                 .base_consts()
///                 .spec(Spec::new(
///                     "returns false",
///                     vec![SetupStep::CallTarget { bind: "xr".into(), args: vec![] }],
///                     vec![call(var("xr"), "==", [false_()])],
///                 ))
///                 .build();
///             (env, problem)
///         },
///         Options::default(),
///     )
/// };
/// let report = run_batch(&[job("a"), job("b")], 2);
/// assert_eq!(report.stats.solved, 2);
/// assert_eq!(report.outcomes[0].id, "a"); // submission order, always
/// ```
pub fn run_batch(jobs: &[BatchJob], threads: usize) -> BatchReport {
    let threads = match threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(jobs.len().max(1));

    let started = Instant::now();
    if threads <= 1 {
        // Sequential fast path: same loop, no thread machinery.
        let outcomes: Vec<BatchOutcome> = jobs.iter().map(BatchJob::run).collect();
        return aggregate(outcomes, started.elapsed(), 1);
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<BatchOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let slots = &slots;
            scope.spawn(move || {
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    // Second containment layer: `BatchJob::run` already
                    // catches panics inside the job body, but a panic in
                    // the driver's own bookkeeping around it must also
                    // convert to a per-job failure — an unwinding scoped
                    // thread would abort the whole batch.
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| job.run())).unwrap_or_else(|panic| {
                            BatchOutcome {
                                id: job.id.clone(),
                                result: Err(SynthError::from_panic(&*panic)),
                                elapsed: Duration::ZERO,
                            }
                        });
                    *contention::lock(&slots[i]) = Some(outcome);
                }
                // Worker exit: hand any traced events to their session
                // before the scoped thread disappears (no-op untraced).
                rbsyn_trace::flush_current_thread();
            });
        }
    });
    // Third containment layer: recover poisoned slot locks and backfill
    // any slot a dying worker left empty, so the batch always reports
    // exactly one outcome per job instead of aborting.
    let outcomes: Vec<BatchOutcome> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| BatchOutcome {
                    id: jobs[i].id.clone(),
                    result: Err(SynthError::Internal(
                        "worker exited without filling its claimed slot".to_owned(),
                    )),
                    elapsed: Duration::ZERO,
                })
        })
        .collect();
    aggregate(outcomes, started.elapsed(), threads)
}

/// [`run_batch`]; the [`BatchPolicy`] has no settings. It remains
/// because synthbench calls it.
pub fn run_batch_with(jobs: &[BatchJob], threads: usize, _policy: &BatchPolicy) -> BatchReport {
    run_batch(jobs, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbsyn_interp::SetupStep;
    use rbsyn_lang::builder::*;
    use rbsyn_lang::Ty;
    use rbsyn_stdlib::EnvBuilder;

    fn trivial_job(id: &str, timeout: Option<Duration>) -> BatchJob {
        let opts = Options {
            timeout,
            ..Options::default()
        };
        BatchJob::new(
            id,
            || {
                let env = EnvBuilder::with_stdlib().finish();
                let problem = SynthesisProblem::builder("m")
                    .returns(Ty::Bool)
                    .base_consts()
                    .spec(rbsyn_interp::Spec::new(
                        "returns false",
                        vec![SetupStep::CallTarget {
                            bind: "xr".into(),
                            args: vec![],
                        }],
                        vec![call(var("xr"), "==", [false_()])],
                    ))
                    .build();
                (env, problem)
            },
            opts,
        )
    }

    fn impossible_job(id: &str, timeout: Duration) -> BatchJob {
        // `assert false` can never pass: the search burns its whole budget.
        let opts = Options {
            timeout: Some(timeout),
            ..Options::default()
        };
        BatchJob::new(
            id,
            || {
                let env = EnvBuilder::with_stdlib().finish();
                let problem = SynthesisProblem::builder("m")
                    .returns(Ty::Bool)
                    .base_consts()
                    .spec(rbsyn_interp::Spec::new(
                        "unsatisfiable",
                        vec![SetupStep::CallTarget {
                            bind: "xr".into(),
                            args: vec![],
                        }],
                        vec![false_()],
                    ))
                    .build();
                (env, problem)
            },
            opts,
        )
    }

    #[test]
    fn ordering_is_submission_order() {
        let jobs: Vec<BatchJob> = (0..8)
            .map(|i| trivial_job(&format!("j{i}"), None))
            .collect();
        let report = run_batch(&jobs, 4);
        let ids: Vec<&str> = report.outcomes.iter().map(|o| o.id.as_str()).collect();
        assert_eq!(ids, ["j0", "j1", "j2", "j3", "j4", "j5", "j6", "j7"]);
        assert_eq!(report.stats.solved, 8);
        assert_eq!(report.stats.jobs, 8);
        assert!(report.stats.tested >= 8);
    }

    #[test]
    fn parallel_results_match_sequential() {
        let jobs: Vec<BatchJob> = (0..6)
            .map(|i| trivial_job(&format!("j{i}"), None))
            .collect();
        let seq = run_batch(&jobs, 1);
        let par = run_batch(&jobs, 3);
        assert_eq!(seq.stats.threads, 1);
        assert_eq!(par.stats.threads, 3);
        for (a, b) in seq.outcomes.iter().zip(par.outcomes.iter()) {
            assert_eq!(a.id, b.id);
            let (pa, pb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(pa.program.to_string(), pb.program.to_string());
            assert_eq!(pa.stats.search.tested, pb.stats.search.tested);
        }
    }

    #[test]
    fn one_timeout_does_not_poison_the_batch() {
        let jobs = vec![
            trivial_job("ok0", None),
            impossible_job("dead", Duration::from_millis(20)),
            trivial_job("ok1", None),
        ];
        let report = run_batch(&jobs, 3);
        assert!(
            report.outcomes[0].solved(),
            "ok0: {:?}",
            report.outcomes[0].result
        );
        assert!(
            report.outcomes[1].timed_out() || !report.outcomes[1].solved(),
            "dead must not solve"
        );
        assert!(
            report.outcomes[2].solved(),
            "ok1: {:?}",
            report.outcomes[2].result
        );
        assert_eq!(report.stats.solved, 2);
        assert_eq!(report.stats.timeouts + report.stats.failures, 1);
    }

    #[test]
    fn panicking_job_is_contained() {
        let mut jobs = vec![trivial_job("ok", None)];
        jobs.push(BatchJob::new(
            "boom",
            || panic!("intentional test panic"),
            Options::default(),
        ));
        let report = run_batch(&jobs, 2);
        assert!(report.outcomes[0].solved());
        match &report.outcomes[1].result {
            Err(SynthError::Internal(msg)) => {
                assert!(msg.contains("panicked"), "unexpected message {msg:?}")
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        assert_eq!(report.stats.panics, 1);
        assert_eq!(report.stats.failures, 1);
    }

    #[test]
    fn panicking_job_does_not_abort_siblings_or_change_them() {
        // Regression for the scoped-thread unwind hole: a panicking job in
        // the middle of the queue must not abort the pool, and every other
        // job's program must be byte-identical to a clean batch's.
        let mk = |with_boom: bool| -> Vec<BatchJob> {
            let mut jobs: Vec<BatchJob> = (0..5)
                .map(|i| trivial_job(&format!("j{i}"), None))
                .collect();
            if with_boom {
                jobs.insert(
                    2,
                    BatchJob::new("boom", || panic!("chaos"), Options::default()),
                );
            }
            jobs
        };
        let clean = run_batch(&mk(false), 3);
        let chaotic = run_batch(&mk(true), 3);
        assert_eq!(chaotic.stats.jobs, 6);
        assert_eq!(chaotic.stats.panics, 1);
        let programs = |r: &BatchReport| -> Vec<(String, String)> {
            r.outcomes
                .iter()
                .filter_map(|o| {
                    o.result
                        .as_ref()
                        .ok()
                        .map(|s| (o.id.clone(), s.program.to_string()))
                })
                .collect()
        };
        assert_eq!(
            programs(&clean),
            programs(&chaotic),
            "unaffected jobs must be byte-identical"
        );
    }

    #[test]
    fn speedup_is_cpu_over_wall() {
        let stats = BatchStats {
            wall_clock: Duration::from_secs(2),
            cpu_time: Duration::from_secs(6),
            ..BatchStats::default()
        };
        assert!((stats.speedup() - 3.0).abs() < 1e-9);
        assert_eq!(BatchStats::default().speedup(), 1.0);
    }
}
