//! The work-list search of Algorithm 2.
//!
//! Candidates are `(c, e)` pairs: an expression with holes and the number
//! of assertions its best evaluable ancestor passed. The list — a
//! [`Frontier`] — is ordered `c` descending, then AST size ascending,
//! then insertion order (§4).
//! Evaluable expansions are run against the oracle immediately; failures
//! with impure read effects are wrapped with an effect hole (S-Eff) and
//! re-enqueued at their fresh assert count.
//!
//! Candidates live in a per-call node arena (`arena.rs`), the same
//! representation the guard pool enumerates in: a candidate is a
//! hash-consed node, each node is typed once from its children's types,
//! and an [`Expr`] is built only for the oracle run. A partial child is
//! pushed as a `(parent, sub)` entry and is interned, type-narrowed and
//! deduplicated only when it is popped; an evaluable child is interned,
//! narrowed and deduplicated when it is produced, and judged at once. The
//! arena is dropped when the call returns. The deadline is polled through
//! the [`Scheduler`].

use crate::arena::{typing, Entry, NodeArena, NodeId, NodeSet, CHECKED};
use crate::engine::{Frontier, Scheduler};
use crate::error::SynthError;
// Re-exported from its pre-engine home so harness and test code keeps one
// import path for the search API.
pub use crate::engine::SearchStats;
use crate::expand::Expander;
use crate::infer::{infer_ty, Gamma};
use crate::options::Options;
use rbsyn_interp::{InterpEnv, PreparedSpec, Spec, SpecOutcome};
use rbsyn_lang::{EffectPair, EffectSet, Expr, Program, Symbol, Ty};
use rbsyn_trace::{Mark, Phase};
use std::time::Instant;

/// What the search asks of a fully concrete candidate.
///
/// [`Oracle::test`] must be a pure function of the candidate body (a spec
/// oracle clones its prepared world snapshot for every run): the search
/// judges each distinct candidate once and never re-asks.
pub trait Oracle {
    /// Tests a candidate program.
    fn test(&self, env: &InterpEnv, program: &Program) -> OracleOutcome;
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
}

/// Oracle for one spec (prepared once; see [`PreparedSpec`]): run it,
/// report the failing assert's effects.
pub struct SpecOracle {
    prepared: PreparedSpec,
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
        SpecOracle { prepared }
    }

    /// The spec's prepared setup snapshot (the guard pool derives its
    /// per-spec checks from it).
    pub(crate) fn prepared(&self) -> &PreparedSpec {
        &self.prepared
    }
}

impl Oracle for SpecOracle {
    fn test(&self, env: &InterpEnv, program: &Program) -> OracleOutcome {
        match self.prepared.run(env, program) {
            SpecOutcome::Passed { asserts } => OracleOutcome {
                success: true,
                passed: asserts,
                effects: None,
            },
            SpecOutcome::Failed { passed, effects } => {
                let has_reads = !effects.read.is_pure();
                OracleOutcome {
                    success: false,
                    passed,
                    effects: has_reads.then_some(effects),
                }
            }
            SpecOutcome::SetupError(_) => OracleOutcome {
                success: false,
                passed: 0,
                effects: None,
            },
        }
    }
}

/// The result of a `generate` call, re-exported for harness code.
pub type GenerateOutcome = Result<Expr, SynthError>;

/// Algorithm 2: searches for an evaluable expression satisfying `oracle`,
/// starting from `□:goal` under `params`.
///
/// `sched` carries the run's deadline and tracing session
/// (see [`Scheduler`]); [`Scheduler::sequential`] gives a run with none
/// of them.
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
    generate_observed(
        env,
        method_name,
        params,
        goal,
        oracle,
        opts,
        max_size,
        sched,
        stats,
        &mut |_, _| {},
    )
}

/// [`generate`], handing `judged` every candidate it tests with the
/// number of the pop that produced it (the differential tests compare
/// that stream).
#[allow(clippy::too_many_arguments)]
fn generate_observed(
    env: &InterpEnv,
    method_name: &str,
    params: &[(Symbol, Ty)],
    goal: &Ty,
    oracle: &dyn Oracle,
    opts: &Options,
    max_size: usize,
    sched: &Scheduler,
    stats: &mut SearchStats,
    judged: &mut dyn FnMut(&Expr, u64),
) -> GenerateOutcome {
    // Hot path: the oracle builds a `Program` for every candidate it
    // tests, so the method name is interned ONCE here and the (already
    // interned) parameter symbols are reused — no per-candidate trips
    // through the global symbol table.
    let method_sym = Symbol::intern(method_name);
    let param_syms: Vec<Symbol> = params.iter().map(|(n, _)| *n).collect();
    let expander = Expander::new(&env.table, opts);
    let mut arena = NodeArena::default();
    let root_gamma = Gamma::from_params(params);
    let root = arena.gamma(root_gamma.clone());

    let typing = typing(&expander);
    // Work-list entries are arena entries; an entry's rank carries its `c`.
    let mut frontier: Frontier<Entry> = Frontier::new();
    let hole = arena.hole(goal, root, typing);
    frontier.push(0, 1, (CHECKED, hole));
    // Dedup filter: no candidate is popped twice, and a candidate judged
    // once is never re-judged in this call.
    let mut seen = NodeSet::default();
    let mut pops = 0u64;
    // Hoisted once: with tracing off every instrumentation site below is
    // a single `None` check on this copy.
    let tracer = sched.trace();
    while let Some((pri, entry)) = frontier.pop_ranked() {
        // A partial candidate is narrowed and deduplicated here; one that
        // is dropped is not a pop.
        let Some(node) = arena.admit(entry, typing, &mut seen, &mut stats.deduped) else {
            continue;
        };
        let c = pri.major as usize;
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
            return Err(SynthError::Timeout);
        }
        if pops > opts.max_expansions {
            break;
        }
        // Hole-free candidates never enter the list: evaluable candidates
        // are judged (and dropped) at expansion time.
        debug_assert!(arena.has_hole(node));
        // One-step expansion, simplified by construction (§3.1).
        let children = arena.children(node, &expander);
        stats.expanded += children.subs.len() as u64;
        if let Some(t) = tracer {
            if t.sampled(stats.popped - 1) {
                t.mark(Mark::Expand);
            }
        }
        for &sub in children.subs.iter() {
            if children.has_hole(&arena, sub) {
                let size = children.size(&arena, sub);
                if size <= max_size {
                    frontier.push(c, size, (node, sub));
                }
                continue;
            }
            // Type narrowing (skipped when type guidance is off) and
            // dedup.
            let Some(id) = arena.admit((node, sub), typing, &mut seen, &mut stats.deduped) else {
                continue;
            };
            stats.tested += 1;
            if let Some(t) = tracer {
                if t.sampled(stats.tested - 1) {
                    t.mark(Mark::OracleRun);
                }
            }
            let program = Program::from_parts(method_sym, param_syms.clone(), arena.to_expr(id));
            judged(&program.body, pops);
            let out = {
                let _ev =
                    tracer.and_then(|t| t.sampled(stats.tested - 1).then(|| t.span(Phase::Eval)));
                let started = Instant::now();
                let out = oracle.test(env, &program);
                stats.eval_nanos = stats
                    .eval_nanos
                    .saturating_add(started.elapsed().as_nanos() as u64);
                out
            };
            if out.success {
                return Ok(program.body);
            }
            // S-Eff: wrap the failing candidate with an effect hole for the
            // unmet read effect. Without effect guidance the wrap still
            // happens, but unconstrained (◇:*).
            let Some(effects) = out.effects else {
                continue;
            };
            let er = if opts.guidance.effects {
                effects.read
            } else {
                EffectSet::star()
            };
            // The hole keeps the candidate's type; an untyped arena types
            // nothing, so without type guidance it is the goal.
            let ty = arena.ty(id).cloned().unwrap_or_else(|| goal.clone());
            let w = wrap_with_effect(
                &mut arena,
                &expander,
                &root_gamma,
                id,
                &program.body,
                er,
                ty,
            );
            let wsize = arena.size(w);
            if wsize <= max_size && seen.insert(w) {
                frontier.push(out.passed, wsize, (CHECKED, w));
            }
        }
    }
    Err(SynthError::NoSolution {
        spec: method_name.to_owned(),
    })
}

/// S-Eff (Fig. 5): the failing candidate `e` (node `val`) becomes
/// `let t = e in (◇:ε_r; □:τ)`, with `τ` pre-resolved. The body's `Γ` is
/// the root `Γ` plus `t` bound at `e`'s type, or `Obj` when `e` has no
/// derivation — what `Expander::expand_first` binds for a `let` body.
fn wrap_with_effect(
    arena: &mut NodeArena,
    ex: &Expander<'_>,
    root: &Gamma,
    val: NodeId,
    e: &Expr,
    er: EffectSet,
    ty: Ty,
) -> NodeId {
    let typing = typing(ex);
    let t = e.fresh_temp();
    let bound = match arena.ty(val) {
        Some(vt) => vt.clone(),
        None => infer_ty(ex.table, &mut root.clone(), e).unwrap_or(Ty::Obj),
    };
    let mut body_gamma = root.clone();
    body_gamma.bind(t, bound);
    let g = arena.gamma(body_gamma);
    let eff = arena.eff_hole(&er, g, typing);
    let hole = arena.hole(&ty, g, typing);
    let body = arena.seq(&[eff, hole], typing);
    arena.let_(t, val, body, typing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::simplify;
    use crate::options::Guidance;
    use rbsyn_interp::SetupStep;
    use rbsyn_lang::builder::*;
    use rbsyn_lang::metrics::node_count;
    use rbsyn_lang::types::HashField;
    use rbsyn_lang::{FiniteHash, Value};
    use rbsyn_stdlib::EnvBuilder;
    use rbsyn_ty::EffectPrecision;
    use std::collections::HashSet;
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
            &Scheduler::new(Some(past)),
            &mut stats,
        );
        assert_eq!(r, Err(SynthError::Timeout));
    }

    #[test]
    fn compact_rendering_of_class_consts() {
        // The dedup key distinguishes class constants by name.
        let (env, post) = blog_env();
        let e = call(cls(post), "first", []);
        assert_eq!(e.compact(), "Post.first");
        let _ = env;
    }

    /// What a search judged: every tested candidate's compact text with
    /// the pop that produced it, the five effort counters, and the program
    /// it returned.
    #[derive(Debug, PartialEq)]
    struct Judged {
        cands: Vec<(String, u64)>,
        effort: (u64, u64, u64, u64, u64),
        program: Option<String>,
    }

    /// One differential fixture: a configured environment and a
    /// single-spec search over it.
    struct Fixture {
        env: InterpEnv,
        params: Vec<(Symbol, Ty)>,
        goal: Ty,
        spec: Spec,
        opts: Options,
    }

    /// Does `e` (typed `ty`) pass type narrowing and the dedup filter? A
    /// duplicate is counted in `stats.deduped`.
    fn admit(
        opts: &Options,
        ty: &Option<Ty>,
        seen: &mut HashSet<Expr>,
        e: &Expr,
        stats: &mut SearchStats,
    ) -> bool {
        if opts.guidance.types && ty.is_none() {
            return false;
        }
        if !seen.insert(e.clone()) {
            stats.deduped += 1;
            return false;
        }
        true
    }

    /// The whole-tree loop the node arena replaced, kept as the reference
    /// it must reproduce: expand the tree, simplify it, type it whole,
    /// dedup it structurally, and wrap failures in S-Eff as whole trees.
    /// A partial candidate is pushed unchecked and narrowed and
    /// deduplicated when popped; one dropped there is not a pop. Also
    /// returns every well-typed candidate expansion produced, and every
    /// wrap, for the fixture-coverage checks.
    fn reference_generate(f: &Fixture, oracle: &dyn Oracle) -> (Judged, HashSet<Expr>) {
        let (env, opts, goal) = (&f.env, &f.opts, &f.goal);
        let expander = Expander::new(&env.table, opts);
        let mut gamma = Gamma::from_params(&f.params);
        let param_syms: Vec<Symbol> = f.params.iter().map(|(n, _)| *n).collect();
        // Entries are `(checked, candidate)`; the rank carries `c`.
        let mut frontier = Frontier::new();
        frontier.push(0, 1, (true, Expr::Hole(goal.clone())));
        let mut seen = HashSet::new();
        let mut produced = HashSet::new();
        let mut stats = SearchStats::default();
        let mut cands = Vec::new();
        let program = 'search: loop {
            let Some((pri, (checked, e))) = frontier.pop_ranked() else {
                break None;
            };
            if !checked {
                let ty = infer_ty(&env.table, &mut gamma, &e);
                if !admit(opts, &ty, &mut seen, &e, &mut stats) {
                    continue;
                }
            }
            let c = pri.major as usize;
            stats.popped += 1;
            if stats.popped > opts.max_expansions {
                break None;
            }
            let subs = expander
                .expand_first(&e, &mut gamma)
                .expect("a popped candidate has a hole");
            stats.expanded += subs.len() as u64;
            for sub in subs {
                let sub = simplify(sub);
                let ty = infer_ty(&env.table, &mut gamma, &sub);
                if !opts.guidance.types || ty.is_some() {
                    produced.insert(sub.clone());
                }
                if sub.has_holes() {
                    let size = node_count(&sub);
                    if size <= opts.max_size {
                        frontier.push(c, size, (false, sub));
                    }
                    continue;
                }
                if !admit(opts, &ty, &mut seen, &sub, &mut stats) {
                    continue;
                }
                stats.tested += 1;
                cands.push((sub.compact(), stats.popped));
                let p = Program::from_parts(Symbol::intern("m"), param_syms.clone(), sub.clone());
                let out = oracle.test(env, &p);
                if out.success {
                    break 'search Some(sub.compact());
                }
                let Some(effects) = out.effects else {
                    continue;
                };
                let er = if opts.guidance.effects {
                    effects.read
                } else {
                    EffectSet::star()
                };
                let ty = match ty {
                    Some(t) if opts.guidance.types => t,
                    _ => goal.clone(),
                };
                let wrapped = Expr::Let {
                    var: sub.fresh_temp(),
                    val: Box::new(sub),
                    body: Box::new(Expr::Seq(vec![Expr::EffHole(er), Expr::Hole(ty)])),
                };
                let wsize = node_count(&wrapped);
                if wsize <= opts.max_size && seen.insert(wrapped.clone()) {
                    produced.insert(wrapped.clone());
                    frontier.push(out.passed, wsize, (true, wrapped));
                }
            }
        };
        let judged = Judged {
            cands,
            effort: stats.effort(),
            program,
        };
        (judged, produced)
    }

    /// The arena search over the same fixture.
    fn arena_generate(f: &Fixture, oracle: &dyn Oracle) -> Judged {
        let mut stats = SearchStats::default();
        let mut cands = Vec::new();
        let out = generate_observed(
            &f.env,
            "m",
            &f.params,
            &f.goal,
            oracle,
            &f.opts,
            f.opts.max_size,
            &Scheduler::sequential(),
            &mut stats,
            &mut |e, pop| cands.push((e.compact(), pop)),
        );
        Judged {
            cands,
            effort: stats.effort(),
            program: out.ok().map(|e| e.compact()),
        }
    }

    /// `env` configured for a run: effect precision and the constants.
    fn configure(mut env: InterpEnv, consts: &[Value], precision: EffectPrecision) -> InterpEnv {
        env.table.set_precision(precision);
        env.table.clear_consts();
        for c in consts {
            env.table.add_const(c.clone());
        }
        env
    }

    /// S6's first spec (Fig. 1): the author changes the title through the
    /// finite-hash parameter `arg2`, which seeds `Hash#[]` receivers.
    fn s6_fixture(precision: EffectPrecision, pops: u64) -> Fixture {
        let mut b = EnvBuilder::with_stdlib();
        let user = b.define_model("User", &[("name", Ty::Str), ("username", Ty::Str)]);
        let post = b.define_model(
            "Post",
            &[("author", Ty::Str), ("title", Ty::Str), ("slug", Ty::Str)],
        );
        let env = configure(
            b.finish(),
            &[Value::Class(user), Value::Class(post)],
            precision,
        );
        let mk = |author: &str, slug: &str, title: &str| {
            call(
                cls(post),
                "create",
                [hash([
                    ("author", str_(author)),
                    ("slug", str_(slug)),
                    ("title", str_(title)),
                ])],
            )
        };
        let update_hash = Ty::FiniteHash(FiniteHash::new(
            ["author", "title", "slug"]
                .into_iter()
                .map(|k| HashField {
                    key: k.into(),
                    ty: Ty::Str,
                    optional: true,
                })
                .collect(),
        ));
        let updated = || var("updated");
        let spec = Spec::new(
            "author can only change titles",
            vec![
                SetupStep::Exec(mk("alice", "alices-post", "On Synthesis")),
                SetupStep::Bind("post".into(), mk("author", "hello-world", "Hello World")),
                SetupStep::Exec(mk("carol", "late-post", "Late Post")),
                SetupStep::CallTarget {
                    bind: "updated".into(),
                    args: vec![
                        str_("author"),
                        str_("hello-world"),
                        hash([
                            ("author", str_("dummy")),
                            ("title", str_("Foo Bar")),
                            ("slug", str_("foobar")),
                        ]),
                    ],
                },
            ],
            vec![
                call(
                    call(updated(), "id", []),
                    "==",
                    [call(var("post"), "id", [])],
                ),
                call(call(updated(), "author", []), "==", [str_("author")]),
                call(call(updated(), "title", []), "==", [str_("Foo Bar")]),
                call(call(updated(), "slug", []), "==", [str_("hello-world")]),
            ],
        );
        Fixture {
            env,
            params: vec![
                ("arg0".into(), Ty::Str),
                ("arg1".into(), Ty::Str),
                ("arg2".into(), update_hash),
            ],
            goal: Ty::Instance(post),
            spec,
            opts: Options {
                max_size: 48,
                max_expansions: pops,
                ..Options::default()
            },
        }
    }

    /// A6's spec: reset every two-factor column of a user, one S-Eff
    /// `let` per column.
    fn a6_fixture(guidance: Guidance, precision: EffectPrecision, pops: u64) -> Fixture {
        let mut b = EnvBuilder::with_stdlib();
        let user = b.define_model(
            "User",
            &[
                ("username", Ty::Str),
                ("name", Ty::Str),
                ("otp_required", Ty::Bool),
                ("otp_secret", Ty::Str),
                ("two_factor_enabled", Ty::Bool),
            ],
        );
        let consts = [
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(1),
            Value::str(""),
            Value::Class(user),
        ];
        let env = configure(b.finish(), &consts, precision);
        let alice = || call(cls(user), "find_by", [hash([("username", str_("alice"))])]);
        let updated = || var("updated");
        let spec = Spec::new(
            "two-factor state is fully reset",
            vec![
                SetupStep::Exec(call(
                    cls(user),
                    "create",
                    [hash([("username", str_("ops")), ("name", str_("Ops Owl"))])],
                )),
                SetupStep::Exec(call(
                    cls(user),
                    "create",
                    [hash([("username", str_("alice")), ("name", str_("Alice"))])],
                )),
                SetupStep::Exec(call(alice(), "otp_required=", [true_()])),
                SetupStep::Exec(call(alice(), "otp_secret=", [str_("s3cr3t")])),
                SetupStep::Exec(call(alice(), "two_factor_enabled=", [true_()])),
                SetupStep::Bind("user".into(), alice()),
                SetupStep::CallTarget {
                    bind: "updated".into(),
                    args: vec![str_("alice")],
                },
            ],
            vec![
                call(
                    call(updated(), "id", []),
                    "==",
                    [call(var("user"), "id", [])],
                ),
                call(call(updated(), "otp_required", []), "==", [false_()]),
                call(call(updated(), "otp_secret", []), "==", [str_("")]),
                call(call(updated(), "two_factor_enabled", []), "==", [false_()]),
            ],
        );
        Fixture {
            env,
            params: vec![("arg0".into(), Ty::Str)],
            goal: Ty::Instance(user),
            spec,
            opts: Options {
                max_size: 44,
                max_expansions: pops,
                ..Options::with_guidance(guidance)
            },
        }
    }

    /// Is `e` a `let` whose bound value is itself a `let` (nested S-Eff)?
    fn nested_let(e: &Expr) -> bool {
        matches!(e, Expr::Let { val, .. } if matches!(**val, Expr::Let { .. }))
    }

    /// The body statements of an S-Eff `let` (one for an unwrapped body).
    fn let_body_len(e: &Expr) -> Option<usize> {
        match e {
            Expr::Let { body, .. } => Some(match &**body {
                Expr::Seq(es) => es.len(),
                _ => 1,
            }),
            _ => None,
        }
    }

    #[test]
    fn arena_search_matches_the_tree_pipeline() {
        let fixtures = [
            ("S6", s6_fixture(EffectPrecision::Precise, 1_500)),
            ("S6 purity", s6_fixture(EffectPrecision::Purity, 600)),
            (
                "A6",
                a6_fixture(Guidance::both(), EffectPrecision::Precise, 2_000),
            ),
            (
                "A6 class",
                a6_fixture(Guidance::both(), EffectPrecision::Class, 2_000),
            ),
            (
                "A6 types only",
                a6_fixture(Guidance::types_only(), EffectPrecision::Precise, 600),
            ),
            (
                "A6 effects only",
                a6_fixture(Guidance::effects_only(), EffectPrecision::Precise, 150),
            ),
            (
                "A6 neither",
                a6_fixture(Guidance::neither(), EffectPrecision::Precise, 150),
            ),
        ];
        let (mut nested, mut spliced, mut unwrapped, mut hash_reads) = (0, 0, 0, 0);
        let mut solved = Vec::new();
        for (name, f) in &fixtures {
            let oracle = SpecOracle::new(&f.env, &f.spec);
            let (reference, produced) = reference_generate(f, &oracle);
            let arena = arena_generate(f, &oracle);
            assert!(!reference.cands.is_empty(), "{name}: nothing tested");
            for (i, (a, r)) in arena.cands.iter().zip(&reference.cands).enumerate() {
                assert_eq!(a, r, "{name}: tested candidate {i} differs");
            }
            assert_eq!(arena, reference, "{name}: counters or program differ");
            if let Some(p) = &reference.program {
                solved.push(format!("{name}: {p}"));
            }
            nested += produced.iter().filter(|e| nested_let(e)).count();
            spliced += produced
                .iter()
                .filter(|e| let_body_len(e) >= Some(3))
                .count();
            unwrapped += produced
                .iter()
                .filter(|e| let_body_len(e) == Some(1))
                .count();
            hash_reads += produced
                .iter()
                .filter(|e| e.compact().contains("arg2["))
                .count();
        }
        assert!(nested > 0, "no fixture nests S-Eff lets");
        assert!(
            spliced > 0,
            "no fixture splices an EffApp sequence into a let body"
        );
        assert!(unwrapped > 0, "no fixture unwraps a singleton let body");
        assert!(hash_reads > 0, "no fixture reads the finite-hash parameter");
        assert!(
            solved.len() >= 2,
            "fixtures must return programs: {solved:?}"
        );
    }
}
