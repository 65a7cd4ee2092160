//! The top-level synthesis pipeline: per-spec solutions (with the §4
//! solution-reuse optimization), then merging.
//!
//! Both phases share one [`SearchCache`]: spec 2's search replays spec 1's
//! expansion and type-check work from the memo, and the merge re-validates
//! candidate bodies against per-spec oracles through the same verdict
//! tables. By default each [`Synthesizer`] owns a private cache; the batch
//! driver shares one across jobs via [`Synthesizer::with_cache`], and
//! [`Options::cache`]` = false` disables memoization entirely.
//!
//! Phase 1 searches the specs one at a time, in spec order, and never
//! searches a spec an earlier solution already passes (§4 solution
//! reuse). **Intra-problem parallelism**
//! (`Options::intra_parallelism` > 1) lives inside each search: its
//! [`SpeculationPool`](crate::engine::SpeculationPool) judges the top of
//! the frontier ahead of in-order consumption, so synthesized programs and
//! effort counters are byte-identical to the sequential pipeline at any
//! width.

use crate::cache::{CacheHandle, SearchCache};
use crate::engine::{Scheduler, SearchStats, Watchdog};
use crate::error::SynthError;
use crate::generate::{generate, Oracle, SpecOracle};
use crate::goal::SynthesisProblem;
use crate::merge::{merge_program, MergeCtx, Tuple};
use crate::options::Options;
use rbsyn_interp::InterpEnv;
use rbsyn_lang::builder::true_;
use rbsyn_lang::metrics::{program_paths, program_size};
use rbsyn_lang::{Program, Symbol};
use rbsyn_trace::{Mark, Phase, Session};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Search-effort and outcome statistics for one synthesis run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthStats {
    /// Work-list counters, accumulated over every `generate` call.
    pub search: SearchStats,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Wall-clock spent in phase-1 per-spec searches.
    pub generate_time: Duration,
    /// Wall-clock spent in merge-time guard searches.
    pub guard_time: Duration,
    /// Wall-clock spent merging per-spec solutions (Algorithm 1 rewrite
    /// rounds, odometer backtracking, merged-program validation) — the
    /// merge call's wall-clock *minus* [`guard_time`](Self::guard_time),
    /// so the generate/guard/merge phases stay additive.
    pub merge_time: Duration,
    /// Wall-clock spent freeing the run's state (the merge context with
    /// its guard pool, the run-scoped cache handle, the spec oracles)
    /// after [`elapsed`](Self::elapsed) was read. Not part of `elapsed`.
    pub teardown_time: Duration,
    /// AST node count of the solution (Table 1 "Meth Size").
    pub solution_size: usize,
    /// Control-flow paths through the solution (Table 1 "# Syn Paths").
    pub solution_paths: usize,
    /// Number of per-spec solution expressions before merging.
    pub tuples: usize,
}

/// A successful synthesis: the program plus statistics.
#[derive(Clone, Debug)]
pub struct SynthResult {
    /// The synthesized method.
    pub program: Program,
    /// Run statistics.
    pub stats: SynthStats,
}

/// Drives the full pipeline for one [`SynthesisProblem`].
///
/// # Example
///
/// ```
/// use rbsyn_core::{Options, SynthesisProblem, Synthesizer};
/// use rbsyn_interp::{SetupStep, Spec};
/// use rbsyn_lang::builder::*;
/// use rbsyn_lang::Ty;
/// use rbsyn_stdlib::EnvBuilder;
///
/// let env = EnvBuilder::with_stdlib().finish();
/// // Goal: def m() returning a Bool; one spec demanding `m() == false`.
/// let problem = SynthesisProblem::builder("m")
///     .returns(Ty::Bool)
///     .base_consts()
///     .spec(Spec::new(
///         "returns false",
///         vec![SetupStep::CallTarget { bind: "xr".into(), args: vec![] }],
///         vec![call(var("xr"), "==", [false_()])],
///     ))
///     .build();
/// let result = Synthesizer::new(env, problem, Options::default()).run().unwrap();
/// assert_eq!(result.program.body.compact(), "false");
/// ```
pub struct Synthesizer {
    env: InterpEnv,
    problem: SynthesisProblem,
    opts: Options,
    cache: Arc<SearchCache>,
    tracer: Option<Session>,
}

impl Synthesizer {
    /// Configures a run with a private [`SearchCache`] (see
    /// [`Synthesizer::with_cache`] for sharing one across runs).
    pub fn new(env: InterpEnv, problem: SynthesisProblem, opts: Options) -> Synthesizer {
        Synthesizer::with_cache(env, problem, opts, Arc::new(SearchCache::new()))
    }

    /// Configures a run against a shared [`SearchCache`] (the batch driver
    /// passes one cache to every job). The shared cache carries the
    /// library-template memo across runs; candidate-level memos live in a
    /// run-scoped cache so their memory is reclaimed per run.
    ///
    /// The environment's class table is reset *symmetrically* from this
    /// run's configuration: the effect precision comes from `opts` and the
    /// constant set `Σ` is cleared and rebuilt from `problem.consts`, so a
    /// reused or cloned environment can never leak the previous problem's
    /// precision or constants into this run. The cache needs no such reset
    /// — its entries are keyed by a content fingerprint of the configured
    /// table, so stale entries are simply unreachable.
    pub fn with_cache(
        mut env: InterpEnv,
        problem: SynthesisProblem,
        opts: Options,
        cache: Arc<SearchCache>,
    ) -> Synthesizer {
        env.table.set_precision(opts.precision);
        env.table.clear_consts();
        for c in &problem.consts {
            env.table.add_const(c.clone());
        }
        Synthesizer {
            env,
            problem,
            opts,
            cache,
            tracer: None,
        }
    }

    /// Attaches an externally owned tracing [`Session`] so the caller can
    /// export the recorded events after the run (`solve --trace` does
    /// this, then writes the Chrome JSON). Without it, a run whose
    /// [`Options::trace`] is set records into a private session that is
    /// discarded — same engine behaviour, no export.
    pub fn with_tracer(mut self, tracer: Session) -> Synthesizer {
        self.tracer = Some(tracer);
        self
    }

    /// Read access to the configured environment (tests, harnesses).
    pub fn env(&self) -> &InterpEnv {
        &self.env
    }

    /// Runs synthesis to completion.
    ///
    /// # Errors
    ///
    /// [`SynthError::Timeout`] when the deadline passes,
    /// [`SynthError::NoSolution`] when a spec cannot be solved within the
    /// search bounds, [`SynthError::MergeFailed`] when no branch merge
    /// passes every spec.
    pub fn run(self) -> Result<SynthResult, SynthError> {
        let Synthesizer {
            mut env,
            problem,
            opts,
            cache,
            tracer,
        } = self;
        problem.validate()?;
        // Hard-cancellation backstop for runs stuck past the cooperative
        // deadline (see [`Watchdog`]). Held for the whole run; dropping it
        // on any exit path disarms the timer.
        let watchdog = match (opts.timeout, opts.watchdog_grace) {
            (Some(budget), Some(grace)) => Some(Watchdog::arm(budget, grace)),
            _ => None,
        };
        if let Some(dog) = &watchdog {
            env.set_interrupt(dog.kill_flag());
        }
        let start = Instant::now();
        // A deadline `Instant` cannot represent means no deadline.
        let deadline = opts.timeout.and_then(|t| start.checked_add(t));
        let mut stats = SynthStats::default();

        // `Options::trace` is the switch; an externally attached session
        // (the CLI's, so it can export afterwards) takes precedence over
        // the private one a bare `Options::trace` provisions.
        let tracer: Option<Session> = tracer.or_else(|| opts.trace.clone().map(Session::new));
        let _solve_span = tracer.as_ref().map(|t| t.span(Phase::Solve));

        // The memoization handle shared by every phase of this run: a
        // run-scoped candidate cache (reclaimed when this run ends) plus
        // the template cache passed in at construction (shared with
        // sibling batch jobs). `--no-cache` drops the handle: each search
        // call below then runs with its own throwaway cache, reproducing
        // the uncached search.
        let search: Option<CacheHandle> = opts.cache.then(|| {
            CacheHandle::bind(
                Arc::new(SearchCache::new()),
                Arc::clone(&cache),
                &env.table,
                &opts,
            )
        });

        let mut sched = Scheduler::new(deadline, search)
            .with_width(opts.intra_parallelism)
            .with_trace(tracer.clone());
        if let Some(dog) = &watchdog {
            sched = sched.with_kill(dog.kill_flag());
        }
        let sched = sched;

        // One prepared oracle per spec, shared by the per-spec searches,
        // the solution-reuse check, and merged-program validation.
        let spec_oracles: Vec<SpecOracle> = problem
            .specs
            .iter()
            .map(|s| SpecOracle::new(&env, s))
            .collect();

        // Phase 1: a solution expression per spec, reusing existing
        // solutions when they already pass (§4: "when confronted with a new
        // spec, RbSyn first tries existing solutions").
        let mut tuples: Vec<Tuple> = Vec::new();
        let name_sym = Symbol::intern(&problem.name);
        let param_syms: Vec<Symbol> = problem.params.iter().map(|(n, _)| *n).collect();
        for (i, spec) in problem.specs.iter().enumerate() {
            let oracle = &spec_oracles[i];
            let reuse_started = Instant::now();
            let reuse_span = tracer.as_ref().map(|t| t.span(Phase::Eval));
            let reused = tuples.iter_mut().find(|t| {
                let p = Program::from_parts(name_sym, param_syms.clone(), t.expr.clone());
                match sched.cache() {
                    Some(h) => {
                        let id = h.intern(t.expr.clone());
                        h.oracle_verdict(oracle.token(), id, &mut stats.search, || {
                            oracle.test(&env, &p)
                        })
                        .success
                    }
                    None => oracle.test(&env, &p).success,
                }
            });
            drop(reuse_span);
            stats.search.eval_nanos = stats
                .search
                .eval_nanos
                .saturating_add(reuse_started.elapsed().as_nanos() as u64);
            if let Some(t) = reused {
                // §4 solution reuse is the run-level memo hit.
                if let Some(tr) = &tracer {
                    tr.mark(Mark::CacheHit);
                }
                t.specs.push(i);
                continue;
            }
            let generate_span = tracer
                .as_ref()
                .map(|t| t.span_with(Phase::Generate, Some(problem.ret.to_string())));
            let started = Instant::now();
            let outcome = generate(
                &env,
                &problem.name,
                &problem.params,
                &problem.ret,
                oracle,
                &opts,
                opts.max_size,
                &sched,
                &mut stats.search,
            );
            stats.generate_time += started.elapsed();
            drop(generate_span);
            if let Some(t) = &tracer {
                t.counter("search-stats", &stats.search.counter_sample());
            }
            let expr = outcome.map_err(|e| match e {
                SynthError::NoSolution { .. } => SynthError::NoSolution {
                    spec: spec.name.clone(),
                },
                other => other,
            })?;
            tuples.push(Tuple {
                expr,
                cond: true_(),
                specs: vec![i],
            });
        }
        stats.tuples = tuples.len();

        // Phase 2: merge into a single branching program (Algorithm 1).
        let mut ctx = MergeCtx {
            env: &env,
            name: name_sym,
            params: &problem.params,
            specs: &problem.specs,
            spec_oracles: &spec_oracles,
            opts: &opts,
            sched: &sched,
            stats: &mut stats.search,
            guard_time: Duration::ZERO,
            known_conds: Vec::new(),
            guards: crate::guards::GuardPool::new(),
        };
        let merge_started = Instant::now();
        let merge_span = tracer.as_ref().map(|t| t.span(Phase::Merge));
        let program = merge_program(&mut ctx, tuples)?;
        drop(merge_span);
        stats.guard_time = ctx.guard_time;
        // Guard covering runs *inside* the merge call; subtracting it
        // keeps the generate/guard/merge report additive.
        stats.merge_time = merge_started.elapsed().saturating_sub(ctx.guard_time);

        stats.elapsed = start.elapsed();
        // Free the run's state here rather than on return, so the time it
        // takes is reported instead of falling into no phase.
        let teardown_started = Instant::now();
        drop(ctx);
        drop(sched);
        drop(spec_oracles);
        stats.teardown_time = teardown_started.elapsed();
        stats.solution_size = program_size(&program);
        stats.solution_paths = program_paths(&program);
        if let Some(t) = &tracer {
            // Final counter sample and the synthetic per-phase totals
            // track — the guarantee that every phase appears as a span
            // even when live sampling saw none of its work.
            t.counter("search-stats", &stats.search.counter_sample());
            t.phase_totals(
                "phase-totals",
                &[
                    (Phase::Generate, stats.generate_time.as_nanos() as u64),
                    (Phase::Guard, stats.guard_time.as_nanos() as u64),
                    (Phase::Merge, stats.merge_time.as_nanos() as u64),
                    (Phase::Eval, stats.search.eval_nanos),
                ],
            );
        }
        Ok(SynthResult { program, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbsyn_interp::SetupStep;
    use rbsyn_lang::builder::*;
    use rbsyn_lang::{Ty, Value};
    use rbsyn_stdlib::EnvBuilder;

    fn blog_env() -> (InterpEnv, rbsyn_lang::ClassId) {
        let mut b = EnvBuilder::with_stdlib();
        let post = b.define_model(
            "Post",
            &[("author", Ty::Str), ("title", Ty::Str), ("slug", Ty::Str)],
        );
        (b.finish(), post)
    }

    #[test]
    fn single_spec_single_solution() {
        let (env, _) = blog_env();
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
        let out = Synthesizer::new(env, problem, Options::default())
            .run()
            .unwrap();
        assert_eq!(out.program.body.compact(), "false");
        assert_eq!(out.stats.solution_paths, 1);
        assert_eq!(out.stats.tuples, 1);
    }

    #[test]
    fn unrepresentable_timeout_means_no_deadline() {
        let (env, _) = blog_env();
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
        let opts = Options {
            timeout: Some(std::time::Duration::MAX),
            ..Options::default()
        };
        let out = Synthesizer::new(env, problem, opts).run().unwrap();
        assert_eq!(out.program.body.compact(), "false");
    }

    #[test]
    fn solution_reuse_collapses_specs() {
        let (env, _) = blog_env();
        // Two specs satisfied by the same constant program.
        let mk = |name: &str| {
            rbsyn_interp::Spec::new(
                name,
                vec![SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![],
                }],
                vec![call(var("xr"), "==", [int(1)])],
            )
        };
        let problem = SynthesisProblem::builder("m")
            .returns(Ty::Int)
            .base_consts()
            .spec(mk("a"))
            .spec(mk("b"))
            .build();
        let out = Synthesizer::new(env, problem, Options::default())
            .run()
            .unwrap();
        assert_eq!(out.program.body.compact(), "1");
        assert_eq!(out.stats.tuples, 1, "second spec reused the first solution");
    }

    #[test]
    fn branching_solutions_get_merged_conditions() {
        let (env, post) = blog_env();
        // Spec 1: DB has a post by "alice" → return true.
        // Spec 2: DB empty → return false.
        let seeded = rbsyn_interp::Spec::new(
            "seeded returns true",
            vec![
                SetupStep::Exec(call(
                    cls(post),
                    "create",
                    [hash([("author", str_("alice"))])],
                )),
                SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![],
                },
            ],
            vec![call(var("xr"), "==", [true_()])],
        );
        let empty = rbsyn_interp::Spec::new(
            "empty returns false",
            vec![SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![],
            }],
            vec![call(var("xr"), "==", [false_()])],
        );
        let problem = SynthesisProblem::builder("m")
            .returns(Ty::Bool)
            .base_consts()
            .constant(Value::Class(post))
            .spec(seeded)
            .spec(empty)
            .build();
        let out = Synthesizer::new(env, problem, Options::default())
            .run()
            .unwrap();
        // The merged program must be a single boolean expression or a
        // conditional; either way it passes both specs and mentions the
        // Post table.
        let s = out.program.body.compact();
        assert!(s.contains("Post."), "expected a Post query in {s}");
    }

    #[test]
    fn intra_parallel_run_matches_sequential() {
        // The same two-spec merge problem, run sequentially and at
        // speculation width 4: programs and effort counters must be
        // identical (the engine determinism contract).
        let build = || {
            let (env, post) = blog_env();
            let seeded = rbsyn_interp::Spec::new(
                "seeded returns true",
                vec![
                    SetupStep::Exec(call(
                        cls(post),
                        "create",
                        [hash([("author", str_("alice"))])],
                    )),
                    SetupStep::CallTarget {
                        bind: "xr".into(),
                        args: vec![],
                    },
                ],
                vec![call(var("xr"), "==", [true_()])],
            );
            let empty = rbsyn_interp::Spec::new(
                "empty returns false",
                vec![SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![],
                }],
                vec![call(var("xr"), "==", [false_()])],
            );
            let problem = SynthesisProblem::builder("m")
                .returns(Ty::Bool)
                .base_consts()
                .constant(Value::Class(post))
                .spec(seeded)
                .spec(empty)
                .build();
            (env, problem)
        };
        let run = |intra: usize| {
            let (env, problem) = build();
            let opts = Options {
                intra_parallelism: intra,
                ..Options::default()
            };
            Synthesizer::new(env, problem, opts).run().unwrap()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(
            seq.program.to_string(),
            par.program.to_string(),
            "programs must be byte-identical across intra widths"
        );
        assert_eq!(seq.stats.search.effort(), par.stats.search.effort());
        assert_eq!(seq.stats.tuples, par.stats.tuples);
    }

    #[test]
    fn timeout_surfaces() {
        let (env, _) = blog_env();
        let problem = SynthesisProblem::builder("m")
            .returns(Ty::Bool)
            .spec(rbsyn_interp::Spec::new(
                "unsatisfiable",
                vec![SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![],
                }],
                vec![false_()],
            ))
            .build();
        let opts = Options {
            timeout: Some(Duration::from_millis(30)),
            ..Options::default()
        };
        let r = Synthesizer::new(env, problem, opts).run();
        assert!(matches!(
            r,
            Err(SynthError::Timeout) | Err(SynthError::NoSolution { .. })
        ));
    }
}
