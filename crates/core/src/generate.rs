//! The work-list search of Algorithm 2.
//!
//! Candidates are `(c, e)` pairs: an expression with holes and the number
//! of assertions its best evaluable ancestor passed. The list — a
//! [`Frontier`] ordered by the run's
//! [`SearchStrategy`](crate::engine::SearchStrategy) — defaults to
//! `c` descending, then AST size ascending, then insertion order (§4).
//! Evaluable expansions are run against the oracle immediately; failures
//! with impure read effects are wrapped with an effect hole (S-Eff) and
//! re-enqueued at their fresh assert count.
//!
//! Candidates are hash-consed ([`rbsyn_lang::ExprId`]) and all expensive
//! steps — expansion, type narrowing, oracle evaluation — are memoized
//! through the [`Scheduler`]'s [`CacheHandle`], so repeated exploration of
//! the same search region (across specs, guard requests, or batch jobs)
//! degenerates into table lookups. A scheduler without a handle runs with
//! a throwaway private cache, which reproduces the uncached search
//! exactly. The deadline and the watchdog's kill flag are polled through
//! the same scheduler; frontier ordering, deadline handling and in-search
//! speculation all live in [`crate::engine`], not here.

use crate::cache::{gamma_fingerprint, CacheHandle, OracleToken};
use crate::engine::speculate::SpecOutcomes;
use crate::engine::{Frontier, FrontierItem, Priority, Scheduler, SpecJob, SpeculationPool};
use crate::error::SynthError;
// Re-exported from its pre-engine home so harness and test code keeps one
// import path for the search API.
pub use crate::engine::SearchStats;
use crate::expand::{simplify, Expander};
use crate::infer::{infer_ty, Gamma};
use crate::options::Options;
use rbsyn_interp::{InterpEnv, PreparedSpec, Spec, SpecOutcome};
use rbsyn_lang::{EffectPair, EffectSet, Expr, ExprId, FxBuild, Program, Symbol, Ty};
use rbsyn_trace::{Mark, Phase};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// What the search asks of a fully concrete candidate.
///
/// Oracles are `Send + Sync`: [`Oracle::test`] is a pure function of the
/// candidate body (each run clones the prepared world snapshot), so the
/// engine may evaluate a batch of candidates concurrently — see
/// [`crate::engine::SpeculationPool`].
pub trait Oracle: Send + Sync {
    /// Tests a candidate program.
    fn test(&self, env: &InterpEnv, program: &Program) -> OracleOutcome;

    /// The memoization identity of this oracle instance (see
    /// [`OracleToken`]). Verdicts are cached per `(token, candidate)`, so
    /// an implementation must mint a fresh token at construction and answer
    /// [`Oracle::test`] as a pure function of the candidate body.
    fn token(&self) -> OracleToken;
}

/// Outcome of one oracle query.
#[derive(Clone, Debug)]
pub struct OracleOutcome {
    /// Did the candidate satisfy the oracle completely?
    pub success: bool,
    /// Units (assertions / specs) passed before stopping — the priority `c`.
    pub passed: usize,
    /// Effects of the failing assertion, when one failed with observable
    /// reads (drives S-Eff).
    pub effects: Option<EffectPair>,
    /// Evaluation-vector fingerprint of the candidate's behavior on the
    /// oracle's test states (see [`PreparedSpec::run_traced`]), when the
    /// oracle computes one. Drives observational-equivalence pruning;
    /// `None` (guard oracles, crashed candidates) just disables pruning
    /// for this candidate.
    pub fp: Option<u128>,
}

/// Oracle for one spec (prepared once; see [`PreparedSpec`]): run it,
/// report the failing assert's effects.
pub struct SpecOracle {
    prepared: PreparedSpec,
    token: OracleToken,
}

impl SpecOracle {
    /// Prepares the spec's setup snapshot.
    ///
    /// # Panics
    ///
    /// Panics when the spec's own setup raises — that is a suite bug, not a
    /// candidate failure.
    pub fn new(env: &InterpEnv, spec: &Spec) -> SpecOracle {
        let prepared = PreparedSpec::prepare(env, spec)
            .unwrap_or_else(|e| panic!("spec {:?} setup failed: {e}", spec.name));
        SpecOracle {
            prepared,
            token: OracleToken::fresh(),
        }
    }
}

impl Oracle for SpecOracle {
    fn test(&self, env: &InterpEnv, program: &Program) -> OracleOutcome {
        let (outcome, fp) = self.prepared.run_traced(env, program);
        match outcome {
            SpecOutcome::Passed { asserts } => OracleOutcome {
                success: true,
                passed: asserts,
                effects: None,
                fp,
            },
            SpecOutcome::Failed { passed, effects } => {
                let has_reads = !effects.read.is_pure();
                OracleOutcome {
                    success: false,
                    passed,
                    effects: has_reads.then_some(effects),
                    fp,
                }
            }
            SpecOutcome::SetupError(_) => OracleOutcome {
                success: false,
                passed: 0,
                effects: None,
                fp: None,
            },
        }
    }

    fn token(&self) -> OracleToken {
        self.token
    }
}

/// Oracle for branch conditions (§3.3): the boolean program must evaluate
/// truthy under every `pos` setup and falsy under every `neg` setup.
/// Effect guidance is never used here ("the asserted expression `x_r` is
/// pure").
pub struct GuardOracle {
    checks: Vec<PreparedSpec>,
    token: OracleToken,
}

impl GuardOracle {
    /// Builds the oracle from positive and negative spec setups.
    ///
    /// # Panics
    ///
    /// Panics when a spec's own setup raises (a suite bug).
    pub fn new(env: &InterpEnv, pos: &[&Spec], neg: &[&Spec]) -> GuardOracle {
        let mut checks = Vec::new();
        for s in pos {
            let p = PreparedSpec::prepare(env, s)
                .unwrap_or_else(|e| panic!("spec {:?} setup failed: {e}", s.name));
            let xr = p.result_var();
            checks.push(p.with_asserts(vec![Expr::Var(xr)]));
        }
        for s in neg {
            let p = PreparedSpec::prepare(env, s)
                .unwrap_or_else(|e| panic!("spec {:?} setup failed: {e}", s.name));
            let xr = p.result_var();
            checks.push(p.with_asserts(vec![Expr::Not(Box::new(Expr::Var(xr)))]));
        }
        GuardOracle {
            checks,
            token: OracleToken::fresh(),
        }
    }
}

impl Oracle for GuardOracle {
    fn test(&self, env: &InterpEnv, program: &Program) -> OracleOutcome {
        let mut passed = 0;
        for c in &self.checks {
            if c.run(env, program).passed() {
                passed += 1;
            } else {
                return OracleOutcome {
                    success: false,
                    passed,
                    effects: None,
                    fp: None,
                };
            }
        }
        OracleOutcome {
            success: true,
            passed,
            effects: None,
            fp: None,
        }
    }

    fn token(&self) -> OracleToken {
        self.token
    }
}

/// The result of a `generate` call, re-exported for harness code.
pub type GenerateOutcome = Result<Expr, SynthError>;

/// Pops to consume strictly sequentially before opening a speculation
/// window: short searches (most guard requests, easy specs) finish inside
/// the warm-up and never pay any pool overhead.
const SPECULATION_WARMUP_POPS: u64 = 192;

/// Frontier items evaluated per speculation window. Sized so a window
/// amortizes the pool synchronization while keeping rollback waste small.
const SPECULATION_WINDOW: usize = 48;

/// A frontier item awaiting in-order consumption: its original rank (for
/// rollback) and, when it came through the speculation pool, the
/// pre-judged outcomes of its expansion list.
struct Pending {
    pri: Priority,
    seq: u64,
    item: FrontierItem,
    prejudged: Option<SpecOutcomes>,
}

/// One-step expansion + simplification + §3.1 type narrowing for one
/// frontier item — the compute function behind the expansion memo, shared
/// by the sequential loop and the speculation workers. Returns the raw
/// (pre-filter) count plus the surviving, hash-consed candidates.
pub(crate) fn expand_compute(
    expander: &Expander<'_>,
    gamma: &mut Gamma,
    env: &InterpEnv,
    opts: &Options,
    search: &CacheHandle,
    expr: &Expr,
) -> (u64, Vec<crate::cache::ExpandItem>) {
    let subs = expander
        .expand_first(expr, gamma)
        .expect("non-evaluable expression must have a hole");
    let raw = subs.len() as u64;
    let mut out = Vec::with_capacity(subs.len());
    for sub in subs {
        let sub = simplify(sub);
        // Type narrowing: discard candidates with no typing derivation
        // (skipped when type guidance is off). Checked before interning —
        // ill-typed candidates never reach the arena, and the verdict is
        // baked into this (memoized) expansion list, so it is computed
        // once per distinct candidate-in-context.
        if opts.guidance.types && infer_ty(&env.table, gamma, &sub).is_none() {
            continue;
        }
        out.push(search.intern_full(sub));
    }
    (raw, out)
}

/// Algorithm 2: searches for an evaluable expression satisfying `oracle`,
/// starting from `□:goal` under `params`.
///
/// `sched` carries the run's deadline, kill flag and memoization
/// handle (see [`Scheduler`]); [`Scheduler::sequential`] gives a
/// self-contained uncached run. Caching never changes the result, only
/// the work done to reach it.
///
/// # Example
///
/// ```
/// use rbsyn_core::engine::{Scheduler, SearchStats};
/// use rbsyn_core::generate::{generate, SpecOracle};
/// use rbsyn_core::Options;
/// use rbsyn_interp::{SetupStep, Spec};
/// use rbsyn_lang::builder::*;
/// use rbsyn_lang::Ty;
/// use rbsyn_stdlib::EnvBuilder;
///
/// let env = EnvBuilder::with_stdlib().finish();
/// // Spec: m("hello") must return a value equal to "hello".
/// let spec = Spec::new(
///     "returns its argument",
///     vec![SetupStep::CallTarget { bind: "xr".into(), args: vec![str_("hello")] }],
///     vec![call(var("xr"), "==", [str_("hello")])],
/// );
/// let opts = Options::default();
/// let mut stats = SearchStats::default();
/// let body = generate(
///     &env,
///     "m",
///     &[("arg0".into(), Ty::Str)],
///     &Ty::Str,
///     &SpecOracle::new(&env, &spec),
///     &opts,
///     opts.max_size,
///     &Scheduler::sequential(),
///     &mut stats,
/// )
/// .unwrap();
/// assert_eq!(body.compact(), "arg0");
/// ```
#[allow(clippy::too_many_arguments)]
pub fn generate(
    env: &InterpEnv,
    method_name: &str,
    params: &[(Symbol, Ty)],
    goal: &Ty,
    oracle: &dyn Oracle,
    opts: &Options,
    max_size: usize,
    sched: &Scheduler,
    stats: &mut SearchStats,
) -> GenerateOutcome {
    let mut out = generate_many(
        env,
        method_name,
        params,
        goal,
        oracle,
        opts,
        max_size,
        sched,
        stats,
        1,
        u64::MAX,
    )?;
    Ok(out.remove(0))
}

/// Like [`generate`], but keeps searching after the first success until
/// `max_solutions` oracle-passing expressions are found (or
/// `extra_after_first` additional work-list pops elapse). Used by the merge
/// to collect alternative branch conditions for backtracking.
///
/// Returns at least one solution on `Ok`; a timeout after the first
/// solution returns the solutions found so far rather than failing.
#[allow(clippy::too_many_arguments)]
pub fn generate_many(
    env: &InterpEnv,
    method_name: &str,
    params: &[(Symbol, Ty)],
    goal: &Ty,
    oracle: &dyn Oracle,
    opts: &Options,
    max_size: usize,
    sched: &Scheduler,
    stats: &mut SearchStats,
    max_solutions: usize,
    extra_after_first: u64,
) -> Result<Vec<Expr>, SynthError> {
    // Hot path: the oracle builds a `Program` for every candidate it
    // tests, so the method name is interned ONCE here and the (already
    // interned) parameter symbols are reused — no per-candidate trips
    // through the global symbol table.
    let method_sym = Symbol::intern(method_name);
    let width = sched.oracle_width();
    if width <= 1 {
        return search_loop(
            env,
            method_name,
            method_sym,
            params,
            goal,
            oracle,
            opts,
            max_size,
            sched,
            stats,
            max_solutions,
            extra_after_first,
            None,
        );
    }
    // Parallel run: the speculation workers share the run's memoization
    // handle, so an uncached run materializes its throwaway cache out here
    // — before the thread scope — where workers can borrow it. Behaviour
    // is unchanged: the sequential loop builds the same private cache.
    let materialized;
    let sched = if sched.cache().is_some() {
        sched
    } else {
        materialized = sched.clone().with_cache(CacheHandle::private());
        &materialized
    };
    // Scoped workers expand and judge the top of the frontier
    // speculatively while this thread consumes the results in pop order
    // (see `SpeculationPool` for why results stay byte-identical).
    std::thread::scope(|scope| {
        search_loop_parallel(
            env,
            method_name,
            method_sym,
            params,
            goal,
            oracle,
            opts,
            max_size,
            sched,
            stats,
            max_solutions,
            extra_after_first,
            scope,
            width,
        )
    })
}

/// Sets up the [`SpeculationPool`] for a parallel run. Split from
/// [`generate_many`] so the scoped-pool borrows (memoization handle,
/// Γ fingerprint) can be established before the pool exists.
#[allow(clippy::too_many_arguments)]
fn search_loop_parallel<'scope, 'env>(
    env: &'scope InterpEnv,
    method_name: &'scope str,
    method_sym: Symbol,
    params: &'scope [(Symbol, Ty)],
    goal: &Ty,
    oracle: &'scope dyn Oracle,
    opts: &'scope Options,
    max_size: usize,
    sched: &'scope Scheduler,
    stats: &mut SearchStats,
    max_solutions: usize,
    extra_after_first: u64,
    scope: &'scope std::thread::Scope<'scope, 'env>,
    width: usize,
) -> Result<Vec<Expr>, SynthError> {
    let search = sched
        .cache()
        .expect("parallel runs always carry a cache handle");
    let gamma_fp = gamma_fingerprint(Gamma::from_params(params).bindings());
    let pool = SpeculationPool::new(
        scope,
        width - 1,
        oracle,
        env,
        method_sym,
        params,
        opts,
        search,
        gamma_fp,
        sched.trace(),
    );
    search_loop(
        env,
        method_name,
        method_sym,
        params,
        goal,
        oracle,
        opts,
        max_size,
        sched,
        stats,
        max_solutions,
        extra_after_first,
        Some(&pool),
    )
}

/// Enqueues a candidate ranked by `(c, size)`.
fn enqueue(
    frontier: &mut Frontier<'_>,
    c: usize,
    size: usize,
    id: ExprId,
    expr: std::sync::Arc<Expr>,
) {
    frontier.push(c, size, FrontierItem { c, size, id, expr });
}

/// The work-list loop behind [`generate_many`].
#[allow(clippy::too_many_arguments)]
fn search_loop(
    env: &InterpEnv,
    method_name: &str,
    method_sym: Symbol,
    params: &[(Symbol, Ty)],
    goal: &Ty,
    oracle: &dyn Oracle,
    opts: &Options,
    max_size: usize,
    sched: &Scheduler,
    stats: &mut SearchStats,
    max_solutions: usize,
    extra_after_first: u64,
    pool: Option<&SpeculationPool<'_, '_>>,
) -> Result<Vec<Expr>, SynthError> {
    // Without a shared handle the search still runs through (its own,
    // throwaway) cache — one code path, identical behaviour, no reuse.
    let local;
    let search = match sched.cache() {
        Some(h) => h,
        None => {
            local = CacheHandle::private();
            &local
        }
    };
    let expander = Expander::new(&env.table, opts, search);
    let mut gamma = Gamma::from_params(params);
    let gamma_fp = gamma_fingerprint(gamma.bindings());
    let param_syms: Vec<Symbol> = params.iter().map(|(n, _)| *n).collect();
    let make_program =
        |body: &Expr| Program::from_parts(method_sym, param_syms.clone(), body.clone());

    let mut frontier = Frontier::new(opts.strategy.strategy());
    // Dedup filter: the work-list never holds two structurally equal
    // candidates, and a candidate judged once is never re-judged in this
    // call.
    let mut seen: HashSet<ExprId, FxBuild> = HashSet::default();
    // Observational-equivalence filter over S-Eff wraps: maps a failing
    // candidate's (evaluation vector, inferred type) to the smallest
    // candidate size already enqueued with that behavior. A later
    // same-or-larger candidate is pruned: its wrap's completions evaluate
    // from an identical post-run world and binding, and the earlier,
    // smaller representative's subtree reaches every corresponding
    // completion first under the frontier order — so the pruned subtree
    // could only re-derive work, never change the first solution found.
    let mut obs_seen: HashMap<(u128, Ty), u32, FxBuild> = HashMap::default();
    let root = search.intern_full(Expr::Hole(goal.clone()));
    enqueue(&mut frontier, 0, 1, root.id, root.expr);

    let mut solutions: Vec<Expr> = Vec::new();
    let mut first_solution_at: Option<u64> = None;
    let mut pops = 0u64;
    // Hoisted once: with tracing off every instrumentation site below is
    // a single `None` check on this copy.
    let tracer = sched.trace();
    // Speculation window: frontier items popped ahead of consumption, with
    // their expansion lists memoized and children pre-judged by the pool.
    let mut window: std::collections::VecDeque<Pending> = std::collections::VecDeque::new();
    let window_size = pool.map_or(0, |_| SPECULATION_WINDOW);
    loop {
        let pending = match window.pop_front() {
            Some(sp) => {
                if frontier.outranks(sp.pri) {
                    // A child pushed while consuming an earlier window item
                    // outranks the speculation: roll the window back at its
                    // original ranks and re-pop in true order.
                    frontier.requeue(sp.pri, sp.seq, sp.item);
                    for rest in window.drain(..) {
                        frontier.requeue(rest.pri, rest.seq, rest.item);
                    }
                    continue;
                }
                sp
            }
            None => {
                if let Some(pool) = pool {
                    // Only speculate once the search is demonstrably large;
                    // short searches stay strictly sequential and pay no
                    // pool overhead.
                    if pops >= SPECULATION_WARMUP_POPS && frontier.len() > 1 {
                        let mut ranked: Vec<(Priority, u64, FrontierItem)> = Vec::new();
                        while ranked.len() < window_size {
                            match frontier.pop_ranked() {
                                Some(r) => ranked.push(r),
                                None => break,
                            }
                        }
                        let jobs: Vec<SpecJob> = ranked
                            .iter()
                            .map(|(_, _, item)| SpecJob {
                                id: item.id,
                                expr: std::sync::Arc::clone(&item.expr),
                            })
                            .collect();
                        let results = pool.evaluate(jobs);
                        for ((pri, seq, item), prejudged) in ranked.into_iter().zip(results) {
                            window.push_back(Pending {
                                pri,
                                seq,
                                item,
                                prejudged: Some(prejudged),
                            });
                        }
                        if window.is_empty() {
                            break;
                        }
                        continue;
                    }
                }
                let Some((pri, seq, item)) = frontier.pop_ranked() else {
                    break;
                };
                Pending {
                    pri,
                    seq,
                    item,
                    prejudged: None,
                }
            }
        };
        let item = pending.item;
        let mut prejudged = pending.prejudged;
        stats.popped += 1;
        pops += 1;
        if let Some(t) = tracer {
            if t.sampled(stats.popped - 1) {
                t.mark(Mark::FrontierPop);
            }
        }
        if stats.popped.is_multiple_of(64) && sched.should_stop() {
            if let Some(t) = tracer {
                t.mark(Mark::DeadlineHit);
            }
            return if solutions.is_empty() {
                Err(SynthError::Timeout)
            } else {
                Ok(solutions)
            };
        }
        if pops > opts.max_expansions {
            break;
        }
        if let Some(at) = first_solution_at {
            if pops > at + extra_after_first {
                break;
            }
        }

        // Hole-free items never enter the list: evaluable candidates are
        // judged (and dropped) at expansion time, and both push sites below
        // only enqueue expressions that still carry a hole.
        debug_assert!(item.expr.has_holes());
        // One-step expansion + simplification + type narrowing (§3.1),
        // memoized per (environment, Γ, candidate) — a guaranteed hit for
        // speculated items (the pool computed it through the same handle),
        // with the raw pre-filter count restored either way.
        let pre_expand_hits = stats.expand_hits;
        let expansions = search.expansions(gamma_fp, item.id, stats, |_| {
            expand_compute(&expander, &mut gamma, env, opts, search, &item.expr)
        });
        if let Some(t) = tracer {
            if t.sampled(stats.popped - 1) {
                t.mark(Mark::Expand);
            }
            if stats.expand_hits > pre_expand_hits {
                t.mark(Mark::CacheHit);
            }
        }
        for (j, cand) in expansions.iter().enumerate() {
            if !seen.insert(cand.id) {
                stats.deduped += 1;
                continue;
            }
            if cand.evaluable {
                stats.tested += 1;
                if let Some(t) = tracer {
                    if t.sampled(stats.tested - 1) {
                        t.mark(Mark::OracleRun);
                    }
                }
                // Fresh candidates are judged directly: within one call the
                // dedup filter already guarantees single judgement, and
                // storing a verdict per failing candidate was measured to
                // cost far more than the rare cross-phase hit it could
                // serve. The memo is consulted where re-judging actually
                // recurs: solution reuse and merge validation.
                let (out, eval_nanos) = prejudged
                    .as_mut()
                    .and_then(|v| v.get_mut(j).and_then(Option::take))
                    .unwrap_or_else(|| {
                        let _ev = tracer
                            .and_then(|t| t.sampled(stats.tested - 1).then(|| t.span(Phase::Eval)));
                        let started = Instant::now();
                        let out = oracle.test(env, &make_program(&cand.expr));
                        (out, started.elapsed().as_nanos() as u64)
                    });
                stats.eval_nanos = stats.eval_nanos.saturating_add(eval_nanos);
                if out.success {
                    solutions.push((*cand.expr).clone());
                    if solutions.len() >= max_solutions {
                        return Ok(solutions);
                    }
                    first_solution_at.get_or_insert(pops);
                    continue;
                }
                // S-Eff: wrap the failing candidate with an effect hole for
                // the unmet read effect. Without effect guidance the wrap
                // still happens, but unconstrained (◇:*).
                if let Some(effects) = out.effects {
                    let er = if opts.guidance.effects {
                        effects.read
                    } else {
                        EffectSet::star()
                    };
                    let ty = if opts.guidance.types {
                        search
                            .infer(gamma_fp, cand.id, stats, || {
                                infer_ty(&env.table, &mut gamma, &cand.expr)
                            })
                            .unwrap_or_else(|| goal.clone())
                    } else {
                        goal.clone()
                    };
                    // Observational-equivalence dedup: skip the wrap (and
                    // with it the whole continuation subtree) when an
                    // equally-behaving candidate of equal or smaller size
                    // is already enqueued.
                    if opts.obs_equiv {
                        if let Some(fp) = out.fp {
                            match obs_seen.entry((fp, ty.clone())) {
                                std::collections::hash_map::Entry::Occupied(mut o) => {
                                    if cand.size >= *o.get() {
                                        stats.obs_pruned += 1;
                                        if let Some(t) = tracer {
                                            if t.sampled(stats.obs_pruned - 1) {
                                                t.mark(Mark::ObsPrune);
                                            }
                                        }
                                        continue;
                                    }
                                    o.insert(cand.size);
                                }
                                std::collections::hash_map::Entry::Vacant(v) => {
                                    v.insert(cand.size);
                                }
                            }
                        }
                    }
                    let wrapped = wrap_with_effect(&cand.expr, er, ty);
                    let w = search.intern_full(wrapped);
                    if w.size as usize <= max_size && seen.insert(w.id) {
                        enqueue(&mut frontier, out.passed, w.size as usize, w.id, w.expr);
                    }
                }
            } else if cand.size as usize <= max_size {
                enqueue(
                    &mut frontier,
                    item.c,
                    cand.size as usize,
                    cand.id,
                    std::sync::Arc::clone(&cand.expr),
                );
            }
        }
    }
    if solutions.is_empty() {
        Err(SynthError::NoSolution {
            spec: method_name.to_owned(),
        })
    } else {
        Ok(solutions)
    }
}

/// S-Eff (Fig. 5): `e` becomes `let t = e in (◇:ε_r; □:τ)` where `τ` is
/// `e`'s (pre-resolved) type.
fn wrap_with_effect(e: &Expr, er: EffectSet, ty: Ty) -> Expr {
    let t = e.fresh_temp();
    Expr::Let {
        var: t,
        val: Box::new(e.clone()),
        body: Box::new(Expr::Seq(vec![Expr::EffHole(er), Expr::Hole(ty)])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StrategyKind;
    use rbsyn_interp::SetupStep;
    use rbsyn_lang::builder::*;
    use rbsyn_lang::Value;
    use rbsyn_stdlib::EnvBuilder;
    use std::time::Instant;

    fn blog_env() -> (InterpEnv, rbsyn_lang::ClassId) {
        let mut b = EnvBuilder::with_stdlib();
        let post = b.define_model(
            "Post",
            &[("author", Ty::Str), ("title", Ty::Str), ("slug", Ty::Str)],
        );
        b.add_const(Value::Class(post));
        (b.finish(), post)
    }

    fn gen(env: &InterpEnv, params: &[(Symbol, Ty)], goal: Ty, spec: &Spec) -> GenerateOutcome {
        let opts = Options::default();
        let mut stats = SearchStats::default();
        generate(
            env,
            "m",
            params,
            &goal,
            &SpecOracle::new(env, spec),
            &opts,
            opts.max_size,
            &Scheduler::sequential(),
            &mut stats,
        )
    }

    #[test]
    fn synthesizes_identity_from_params() {
        let (env, _) = blog_env();
        // Spec: m("s") must return a truthy value whose == "s" holds.
        let spec = Spec::new(
            "returns its argument",
            vec![SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![str_("hello")],
            }],
            vec![call(var("xr"), "==", [str_("hello")])],
        );
        let sol = gen(&env, &[("arg0".into(), Ty::Str)], Ty::Str, &spec).unwrap();
        assert_eq!(sol.compact(), "arg0");
    }

    #[test]
    fn synthesizes_constants() {
        let (env, _) = blog_env();
        let mut env = env;
        env.table.add_const(Value::Bool(true));
        env.table.add_const(Value::Bool(false));
        let spec = Spec::new(
            "returns false",
            vec![SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![],
            }],
            vec![call(var("xr"), "==", [false_()])],
        );
        let sol = gen(&env, &[], Ty::Bool, &spec).unwrap();
        assert_eq!(sol.compact(), "false");
    }

    #[test]
    fn synthesizes_queries_with_hash_arguments() {
        let (env, post) = blog_env();
        // Seed a post, ask for the record with the given slug.
        // Three rows so the target is neither first nor last — otherwise
        // degenerate candidates like `Post.last` pass, exactly the
        // seeding-sensitivity the paper's C4 step illustrates.
        let mk = |author: &str, slug: &str| {
            SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("author", str_(author)), ("slug", str_(slug))])],
            ))
        };
        let spec = Spec::new(
            "finds by slug",
            vec![
                mk("alice", "s1"),
                mk("bob", "s2"),
                mk("carol", "s3"),
                SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![str_("s2")],
                },
            ],
            vec![call(call(var("xr"), "author", []), "==", [str_("bob")])],
        );
        let sol = gen(&env, &[("arg0".into(), Ty::Str)], Ty::Instance(post), &spec).unwrap();
        // Accept any of the equivalent single-call solutions.
        let s = sol.compact();
        assert!(
            s.contains("slug: arg0"),
            "expected a slug-keyed query, got {s}"
        );
    }

    #[test]
    fn effect_guidance_fixes_failing_writes() {
        let (env, post) = blog_env();
        // Spec: after m(post_title), the seeded post's title must change.
        let seed = SetupStep::Bind(
            "p".into(),
            call(
                cls(post),
                "create",
                [hash([("title", str_("Old")), ("slug", str_("s"))])],
            ),
        );
        let spec = Spec::new(
            "updates the title",
            vec![
                seed,
                SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![str_("New")],
                },
            ],
            vec![call(call(var("p"), "title", []), "==", [str_("New")])],
        );
        let sol = gen(&env, &[("arg0".into(), Ty::Str)], Ty::Instance(post), &spec).unwrap();
        let s = sol.compact();
        assert!(s.contains("title="), "expected a title write, got {s}");
    }

    #[test]
    fn guard_oracle_distinguishes_setups() {
        let (env, post) = blog_env();
        let seeded = Spec::new(
            "seeded",
            vec![
                SetupStep::Exec(call(cls(post), "create", [hash([("slug", str_("x"))])])),
                SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![],
                },
            ],
            vec![],
        );
        let empty = Spec::new(
            "empty",
            vec![SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![],
            }],
            vec![],
        );
        let oracle = GuardOracle::new(&env, &[&seeded], &[&empty]);
        let opts = Options::default();
        let mut stats = SearchStats::default();
        let guard = generate(
            &env,
            "m",
            &[],
            &Ty::Bool,
            &oracle,
            &opts,
            opts.max_guard_size,
            &Scheduler::sequential(),
            &mut stats,
        )
        .unwrap();
        // Any emptiness test of the posts table is acceptable
        // (`Post.count.positive?`, `Post.exists?(…)`, …); re-verify it
        // against the oracle and check it queries Post.
        assert!(guard.compact().contains("Post."), "got {}", guard.compact());
        let p = Program::new("m", [], guard);
        assert!(oracle.test(&env, &p).success);
    }

    #[test]
    fn unsatisfiable_specs_exhaust() {
        let (env, _) = blog_env();
        let spec = Spec::new(
            "impossible",
            vec![SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![],
            }],
            vec![false_()],
        );
        let opts = Options {
            max_expansions: 2_000,
            ..Options::default()
        };
        let mut stats = SearchStats::default();
        let r = generate(
            &env,
            "m",
            &[],
            &Ty::Bool,
            &SpecOracle::new(&env, &spec),
            &opts,
            6,
            &Scheduler::sequential(),
            &mut stats,
        );
        assert!(matches!(r, Err(SynthError::NoSolution { .. })));
        assert!(stats.tested > 0);
    }

    #[test]
    fn deadline_is_respected() {
        let (env, _) = blog_env();
        let spec = Spec::new(
            "impossible",
            vec![SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![],
            }],
            vec![false_()],
        );
        let opts = Options::default();
        let mut stats = SearchStats::default();
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let r = generate(
            &env,
            "m",
            &[],
            &Ty::Bool,
            &SpecOracle::new(&env, &spec),
            &opts,
            20,
            &Scheduler::new(Some(past), None),
            &mut stats,
        );
        assert_eq!(r, Err(SynthError::Timeout));
    }

    #[test]
    fn kill_flag_stops_the_search() {
        let (env, _) = blog_env();
        let spec = Spec::new(
            "impossible",
            vec![SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![],
            }],
            vec![false_()],
        );
        let opts = Options::default();
        let mut stats = SearchStats::default();
        let kill = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let sched = Scheduler::sequential().with_kill(kill);
        let r = generate(
            &env,
            "m",
            &[],
            &Ty::Bool,
            &SpecOracle::new(&env, &spec),
            &opts,
            20,
            &sched,
            &mut stats,
        );
        assert_eq!(r, Err(SynthError::Timeout));
        assert!(
            stats.popped <= 64,
            "the kill flag must stop the search within one check window"
        );
    }

    #[test]
    fn strategies_explore_in_different_orders_but_both_solve() {
        let (env, _) = blog_env();
        let spec = Spec::new(
            "returns its argument",
            vec![SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![str_("hello")],
            }],
            vec![call(var("xr"), "==", [str_("hello")])],
        );
        let solve = |kind: StrategyKind| {
            let opts = Options {
                strategy: kind,
                ..Options::default()
            };
            let mut stats = SearchStats::default();
            generate(
                &env,
                "m",
                &[("arg0".into(), Ty::Str)],
                &Ty::Str,
                &SpecOracle::new(&env, &spec),
                &opts,
                opts.max_size,
                &Scheduler::sequential(),
                &mut stats,
            )
            .unwrap()
            .compact()
        };
        assert_eq!(solve(StrategyKind::Paper), "arg0");
        assert_eq!(solve(StrategyKind::CostWeighted), "arg0");
    }

    #[test]
    fn compact_rendering_of_class_consts() {
        // The dedup key distinguishes class constants by name.
        let (env, post) = blog_env();
        let e = call(cls(post), "first", []);
        assert_eq!(e.compact(), "Post.first");
        let _ = env;
    }
}
