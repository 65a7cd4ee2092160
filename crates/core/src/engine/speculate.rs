//! Speculative frontier evaluation: the innermost parallel layer of the
//! search.
//!
//! Profiling the suite shows hard searches spend nearly all their time in
//! the per-pop pipeline — one-step expansion, simplification, type
//! narrowing (`infer_ty`), hash-consing, and the oracle tests of the
//! resulting evaluable candidates. Each pop's pipeline is a pure function
//! of `(root Γ, candidate)` (exactly the invariant the expansion memo
//! already relies on) plus pure oracle queries, so the top of the
//! frontier can be evaluated *speculatively in parallel* while the search
//! consumes the results strictly in pop order:
//!
//! * workers expand their item **through the run's [`CacheHandle`]**, so
//!   the coordinator's in-order consumption finds every list memoized
//!   (a hit restores the raw expansion count — effort counters stay
//!   byte-identical to the sequential run);
//! * workers pre-test every evaluable child and hand back outcomes
//!   aligned with the memoized list, each with the time its oracle run
//!   took; the consumer applies its normal dedup/S-Eff logic and simply
//!   never counts or consumes outcomes the sequential loop would not have
//!   requested (a consumed outcome's time joins
//!   [`SearchStats::eval_nanos`], as an inline run's would);
//! * if consuming one item pushes a child that outranks the rest of the
//!   speculation window, the window is rolled back into the frontier at
//!   its original ranks and re-popped — speculation can be wasted, never
//!   wrong.
//!
//! The search borrows its oracle and environment, so the pool owns a
//! small set of **scoped** worker threads (`std::thread::scope`) that may
//! borrow everything the search borrows. Workers are spawned lazily —
//! searches that never open a speculation window pay nothing — and sized
//! by `intra_parallelism`, so `--intra 1` keeps the whole engine on one
//! thread.

use crate::cache::CacheHandle;
use crate::engine::SearchStats;
use crate::expand::Expander;
use crate::generate::{expand_compute, Oracle, OracleOutcome};
use crate::infer::Gamma;
use crate::options::Options;
use rbsyn_interp::InterpEnv;
use rbsyn_lang::contention::{self, LockSite};
use rbsyn_lang::{Expr, ExprId, Program, Symbol, Ty};
use rbsyn_trace::{Phase, Session};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::Instant;

/// Process-wide budget of *extra* speculation workers, initialized to the
/// host's core count on first use. Concurrent searches (the jobs of a
/// `--parallel` batch) each want `width - 1` workers; without a shared
/// budget the thread count would grow with the job count times the
/// width. Pools acquire what the budget grants (possibly zero — the
/// coordinating thread always participates, so a grant of zero just means
/// that search speculates on its own thread) and release on drop. Worker
/// counts never affect results, only wall-clock.
static WORKER_BUDGET: AtomicIsize = AtomicIsize::new(-1);

fn acquire_workers(want: usize) -> usize {
    let _ = WORKER_BUDGET.compare_exchange(
        -1,
        std::thread::available_parallelism()
            .map(|n| n.get() as isize)
            .unwrap_or(1),
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    let mut granted = 0;
    while granted < want {
        let cur = WORKER_BUDGET.load(Ordering::Relaxed);
        if cur <= 0 {
            break;
        }
        if WORKER_BUDGET
            .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            granted += 1;
        }
    }
    granted
}

fn release_workers(n: usize) {
    if n > 0 {
        WORKER_BUDGET.fetch_add(n as isize, Ordering::Relaxed);
    }
}

/// One speculated frontier item.
pub struct SpecJob {
    /// Hash-consed candidate id (the expansion-memo key).
    pub id: ExprId,
    /// The candidate expression.
    pub expr: Arc<Expr>,
}

/// Per-item speculation result: oracle outcomes aligned with the item's
/// memoized expansion list (`Some` for every evaluable child), each with
/// the wall-clock nanoseconds its oracle run took.
pub type SpecOutcomes = Vec<Option<(OracleOutcome, u64)>>;

struct State {
    jobs: Vec<SpecJob>,
    next: usize,
    done: usize,
    results: Vec<Option<SpecOutcomes>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    signal: Condvar,
}

/// Everything a worker needs to run one item's expand-and-test pipeline.
/// All borrows outlive the scope; mutable state (Γ, scratch counters,
/// expander) is per-worker.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    oracle: &'a dyn Oracle,
    env: &'a InterpEnv,
    method_name: Symbol,
    params: &'a [(Symbol, Ty)],
    opts: &'a Options,
    search: &'a CacheHandle,
    gamma_fp: u128,
    /// The run's tracing session (workers record sampled eval spans on
    /// their own tracks and flush at shutdown).
    trace: Option<&'a Session>,
}

fn run_job(
    ctx: &Ctx<'_>,
    gamma: &mut Gamma,
    scratch: &mut SearchStats,
    job: &SpecJob,
) -> SpecOutcomes {
    let expander = Expander::new(&ctx.env.table, ctx.opts, ctx.search);
    let expansions = ctx.search.expansions(ctx.gamma_fp, job.id, scratch, |_| {
        expand_compute(&expander, gamma, ctx.env, ctx.opts, ctx.search, &job.expr)
    });
    expansions
        .iter()
        .map(|cand| {
            cand.evaluable.then(|| {
                let started = Instant::now();
                let program = Program::from_parts(
                    ctx.method_name,
                    ctx.params.iter().map(|(n, _)| *n).collect(),
                    (*cand.expr).clone(),
                );
                let out = ctx.oracle.test(ctx.env, &program);
                (out, started.elapsed().as_nanos() as u64)
            })
        })
        .collect()
}

/// A lazily-spawned team of scoped speculation workers for one `generate`
/// call. See the [module docs](self).
pub struct SpeculationPool<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    ctx: Ctx<'scope>,
    workers: usize,
    /// Workers actually spawned (granted by [`WORKER_BUDGET`]); released
    /// on drop.
    granted: Cell<usize>,
    spawned: Cell<bool>,
    shared: Arc<Shared>,
}

impl<'scope, 'env> SpeculationPool<'scope, 'env> {
    /// A pool of up to `workers` extra threads (the coordinating search
    /// thread always participates too, so the effective width is at most
    /// `workers + 1`). No threads are spawned until the first window, and
    /// the actual count is capped by the process-wide core-sized worker
    /// budget so concurrently running searches cannot multiply the
    /// machine's thread count.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        scope: &'scope Scope<'scope, 'env>,
        workers: usize,
        oracle: &'scope dyn Oracle,
        env: &'scope InterpEnv,
        method_name: Symbol,
        params: &'scope [(Symbol, Ty)],
        opts: &'scope Options,
        search: &'scope CacheHandle,
        gamma_fp: u128,
        trace: Option<&'scope Session>,
    ) -> SpeculationPool<'scope, 'env> {
        SpeculationPool {
            scope,
            ctx: Ctx {
                oracle,
                env,
                method_name,
                params,
                opts,
                search,
                gamma_fp,
                trace,
            },
            workers,
            granted: Cell::new(0),
            spawned: Cell::new(false),
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    jobs: Vec::new(),
                    next: 0,
                    done: 0,
                    results: Vec::new(),
                    shutdown: false,
                }),
                signal: Condvar::new(),
            }),
        }
    }

    fn ensure_workers(&self) {
        if self.spawned.replace(true) {
            return;
        }
        let granted = acquire_workers(self.workers);
        self.granted.set(granted);
        for w in 0..granted {
            let shared = Arc::clone(&self.shared);
            let ctx = self.ctx;
            let builder = std::thread::Builder::new().name(format!("speculate-{w}"));
            builder
                .spawn_scoped(self.scope, move || {
                    // Per-worker mutable state: a fresh root Γ is equivalent to
                    // the coordinator's (expansion is a pure function of the
                    // root bindings; see the expansion-memo contract).
                    let mut gamma = Gamma::from_params(ctx.params);
                    let mut scratch = SearchStats::default();
                    let mut jobs_done = 0u64;
                    let mut state = contention::lock(LockSite::SpeculationPool, &shared.state);
                    loop {
                        if state.shutdown {
                            // Drain this worker's trace buffer before the
                            // scoped thread disappears (no-op untraced).
                            rbsyn_trace::flush_current_thread();
                            return;
                        }
                        if state.next < state.jobs.len() {
                            let i = state.next;
                            state.next += 1;
                            let job = SpecJob {
                                id: state.jobs[i].id,
                                expr: Arc::clone(&state.jobs[i].expr),
                            };
                            drop(state);
                            let sp = ctx
                                .trace
                                .and_then(|t| t.sampled(jobs_done).then(|| t.span(Phase::Eval)));
                            jobs_done += 1;
                            let out = run_job(&ctx, &mut gamma, &mut scratch, &job);
                            drop(sp);
                            state = contention::lock(LockSite::SpeculationPool, &shared.state);
                            state.results[i] = Some(out);
                            state.done += 1;
                            if state.done == state.jobs.len() {
                                shared.signal.notify_all();
                            }
                        } else {
                            state = shared.signal.wait(state).unwrap_or_else(|p| p.into_inner());
                        }
                    }
                })
                .expect("spawn speculation worker");
        }
    }

    /// Evaluates a window of frontier items, returning per-item outcome
    /// vectors in input order. The calling thread claims jobs alongside
    /// the workers, so this also works (sequentially) with zero workers.
    pub fn evaluate(&self, jobs: Vec<SpecJob>) -> Vec<SpecOutcomes> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        self.ensure_workers();
        {
            let mut state = contention::lock(LockSite::SpeculationPool, &self.shared.state);
            debug_assert!(state.jobs.is_empty(), "one window at a time");
            state.jobs = jobs;
            state.next = 0;
            state.done = 0;
            state.results = (0..n).map(|_| None).collect();
            self.shared.signal.notify_all();
        }
        let mut gamma = Gamma::from_params(self.ctx.params);
        let mut scratch = SearchStats::default();
        // Participate until every job is claimed…
        loop {
            let job;
            let i;
            {
                let mut state = contention::lock(LockSite::SpeculationPool, &self.shared.state);
                if state.next >= n {
                    break;
                }
                i = state.next;
                state.next += 1;
                job = SpecJob {
                    id: state.jobs[i].id,
                    expr: Arc::clone(&state.jobs[i].expr),
                };
            }
            let out = run_job(&self.ctx, &mut gamma, &mut scratch, &job);
            let mut state = contention::lock(LockSite::SpeculationPool, &self.shared.state);
            state.results[i] = Some(out);
            state.done += 1;
            if state.done == n {
                self.shared.signal.notify_all();
            }
        }
        // …then wait for stragglers running on workers.
        let mut state = contention::lock(LockSite::SpeculationPool, &self.shared.state);
        while state.done < n {
            state = self
                .shared
                .signal
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
        state.jobs = Vec::new();
        state
            .results
            .drain(..)
            .map(|o| o.expect("completed window has all results"))
            .collect()
    }
}

impl Drop for SpeculationPool<'_, '_> {
    fn drop(&mut self) {
        {
            let mut state = contention::lock(LockSite::SpeculationPool, &self.shared.state);
            state.shutdown = true;
            self.shared.signal.notify_all();
        }
        release_workers(self.granted.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_budget_grants_and_releases() {
        // Other tests' pools share this global budget, so only assert
        // race-free properties: grants never exceed the request, zero
        // requests get zero, and releases never underflow/panic.
        let got = acquire_workers(3);
        assert!(got <= 3);
        release_workers(got);
        assert_eq!(acquire_workers(0), 0);
        release_workers(0);
    }

    #[test]
    fn evaluated_outcomes_carry_their_oracle_time() {
        use crate::cache::gamma_fingerprint;
        use crate::generate::SpecOracle;
        use rbsyn_interp::{SetupStep, Spec};
        use rbsyn_lang::builder::{call, str_, var};
        use rbsyn_stdlib::EnvBuilder;

        let env = EnvBuilder::with_stdlib().finish();
        let spec = Spec::new(
            "returns its argument",
            vec![SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![str_("hello")],
            }],
            vec![call(var("xr"), "==", [str_("hello")])],
        );
        let oracle = SpecOracle::new(&env, &spec);
        let params: [(Symbol, Ty); 1] = [("arg0".into(), Ty::Str)];
        let opts = Options::default();
        let search = CacheHandle::private();
        let gamma_fp = gamma_fingerprint(Gamma::from_params(&params).bindings());
        let root = search.intern_full(Expr::Hole(Ty::Str));
        let outcomes = std::thread::scope(|scope| {
            let pool = SpeculationPool::new(
                scope,
                1,
                &oracle,
                &env,
                Symbol::intern("m"),
                &params,
                &opts,
                &search,
                gamma_fp,
                None,
            );
            pool.evaluate(vec![SpecJob {
                id: root.id,
                expr: root.expr,
            }])
        });
        let mut stats = SearchStats::default();
        let list = search.expansions(gamma_fp, root.id, &mut stats, |_| {
            unreachable!("the pool memoized the expansion list")
        });
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].len(), list.len());
        let mut judged = 0;
        for (cand, out) in list.iter().zip(&outcomes[0]) {
            assert_eq!(cand.evaluable, out.is_some());
            if let Some((_, eval_nanos)) = out {
                assert!(*eval_nanos > 0, "an oracle run takes measurable time");
                judged += 1;
            }
        }
        assert!(judged > 0, "the root hole expands to evaluable candidates");
    }
}
