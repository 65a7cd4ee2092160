//! Cache semantics: the template memo must be invisible in results.
//!
//! * a property test drives `generate` over random problems, twice with a
//!   shared [`CacheHandle`] and once uncached, and demands identical
//!   programs *and* identical effort counters;
//! * batch tests check that sharing one [`SearchCache`] across jobs (the
//!   `run_batch` default) changes nothing observable, sequentially or in
//!   parallel;
//! * a regression test pins the symmetric environment reset in
//!   `Synthesizer::new`: a reused/cloned environment must not leak the
//!   previous problem's effect precision or constants into the next run.

use proptest::prelude::*;
use rbsyn_core::cache::{CacheHandle, SearchCache};
use rbsyn_core::generate::{generate, SearchStats, SpecOracle};
use rbsyn_core::{run_batch, BatchJob, Options, SynthesisProblem, Synthesizer};
use rbsyn_interp::{InterpEnv, SetupStep, Spec};
use rbsyn_lang::builder::*;
use rbsyn_lang::{Expr, Ty, Value};
use rbsyn_stdlib::EnvBuilder;
use std::sync::Arc;

fn blog_env() -> (InterpEnv, rbsyn_lang::ClassId) {
    let mut b = EnvBuilder::with_stdlib();
    let post = b.define_model(
        "Post",
        &[("author", Ty::Str), ("title", Ty::Str), ("slug", Ty::Str)],
    );
    b.add_const(Value::Class(post));
    b.add_const(Value::Bool(true));
    b.add_const(Value::Bool(false));
    b.add_const(Value::Int(0));
    b.add_const(Value::Int(1));
    (b.finish(), post)
}

/// A small random synthesis problem: return type, parameters, and a target
/// expression the spec asserts the result equal to. Every generated
/// problem is solvable (the target is a constant or a parameter).
#[derive(Clone, Debug)]
struct RandomProblem {
    params: Vec<(&'static str, Ty)>,
    goal: Ty,
    call_args: Vec<Expr>,
    expected: Expr,
}

fn arb_problem() -> impl Strategy<Value = RandomProblem> {
    (0usize..6).prop_map(|shape| match shape {
        // Identity over a string parameter.
        0 => RandomProblem {
            params: vec![("arg0", Ty::Str)],
            goal: Ty::Str,
            call_args: vec![str_("val")],
            expected: str_("val"),
        },
        // Identity over an int parameter, two params in scope.
        1 => RandomProblem {
            params: vec![("arg0", Ty::Int), ("arg1", Ty::Str)],
            goal: Ty::Int,
            call_args: vec![int(7), str_("x")],
            expected: int(7),
        },
        // Constant booleans.
        2 => RandomProblem {
            params: vec![],
            goal: Ty::Bool,
            call_args: vec![],
            expected: true_(),
        },
        3 => RandomProblem {
            params: vec![],
            goal: Ty::Bool,
            call_args: vec![],
            expected: false_(),
        },
        // Constant ints from Σ.
        4 => RandomProblem {
            params: vec![],
            goal: Ty::Int,
            call_args: vec![],
            expected: int(0),
        },
        _ => RandomProblem {
            params: vec![],
            goal: Ty::Int,
            call_args: vec![],
            expected: int(1),
        },
    })
}

fn solve_once(p: &RandomProblem, search: Option<&CacheHandle>) -> (String, SearchStats) {
    let (env, _) = blog_env();
    let spec = Spec::new(
        "matches the target",
        vec![SetupStep::CallTarget {
            bind: "xr".into(),
            args: p.call_args.clone(),
        }],
        vec![call(var("xr"), "==", [p.expected.clone()])],
    );
    let params: Vec<(rbsyn_lang::Symbol, Ty)> = p
        .params
        .iter()
        .map(|(n, t)| (rbsyn_lang::Symbol::intern(n), t.clone()))
        .collect();
    let opts = Options::default();
    let mut stats = SearchStats::default();
    let sched = rbsyn_core::engine::Scheduler::new(None, search.cloned());
    let expr = generate(
        &env,
        "m",
        &params,
        &p.goal,
        &SpecOracle::new(&env, &spec),
        &opts,
        opts.max_size,
        &sched,
        &mut stats,
    )
    .expect("generated problems are solvable");
    (expr.compact(), stats)
}

/// Cached and uncached searches return the same program and the same
/// effort counters — memoization is purely a time optimization.
fn check_cached_uncached_agreement(p: RandomProblem) {
    let (env, _) = blog_env();
    let opts = Options::default();
    let shared = CacheHandle::bind(Arc::new(SearchCache::new()), &env.table, &opts);
    // Two cached runs against the SAME handle: the second builds its fill
    // lists from the first's templates.
    let (cached1, s1) = solve_once(&p, Some(&shared));
    let (cached2, s2) = solve_once(&p, Some(&shared));
    let (uncached, s0) = solve_once(&p, None);
    assert_eq!(cached1, uncached, "cached vs uncached program for {p:?}");
    assert_eq!(cached2, uncached, "warm-cache program for {p:?}");
    for (a, b) in [(s1, s0), (s2, s0)] {
        assert_eq!(a.popped, b.popped);
        assert_eq!(a.expanded, b.expanded);
        assert_eq!(a.tested, b.tested);
        assert_eq!(a.deduped, b.deduped);
    }
    // And the runs actually went through the memo.
    assert!(
        shared.shared_cache().template_entries() > 0,
        "cached runs must store their templates"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_and_uncached_generate_agree(p in arb_problem()) {
        check_cached_uncached_agreement(p);
    }
}

// A fast-but-nontrivial job: identity over a string parameter (a few dozen
// work-list pops, well under a second even unoptimized).
fn trivial_job(id: &str) -> BatchJob {
    BatchJob::new(
        id,
        || {
            let (env, _) = blog_env();
            let problem = SynthesisProblem::builder("m")
                .param("arg0", Ty::Str)
                .returns(Ty::Str)
                .base_consts()
                .spec(Spec::new(
                    "returns its argument",
                    vec![SetupStep::CallTarget {
                        bind: "xr".into(),
                        args: vec![str_("hello")],
                    }],
                    vec![call(var("xr"), "==", [str_("hello")])],
                ))
                .build();
            (env, problem)
        },
        Options::default(),
    )
}

/// Cross-job sharing must be invisible: a batch of identical jobs produces
/// identical programs and counters whether jobs run against one shared
/// cache (sequentially or in parallel) or against private caches.
#[test]
fn batch_cache_sharing_is_deterministic() {
    let jobs: Vec<BatchJob> = (0..4).map(|i| trivial_job(&format!("j{i}"))).collect();
    let shared_seq = run_batch(&jobs, 1);
    let shared_par = run_batch(&jobs, 3);
    let private: Vec<_> = jobs.iter().map(|j| j.run()).collect();
    for ((a, b), c) in shared_seq
        .outcomes
        .iter()
        .zip(shared_par.outcomes.iter())
        .zip(private.iter())
    {
        let (ra, rb, rc) = (
            a.result.as_ref().unwrap(),
            b.result.as_ref().unwrap(),
            c.result.as_ref().unwrap(),
        );
        assert_eq!(ra.program.to_string(), rb.program.to_string());
        assert_eq!(ra.program.to_string(), rc.program.to_string());
        assert_eq!(ra.stats.search.tested, rb.stats.search.tested);
        assert_eq!(ra.stats.search.tested, rc.stats.search.tested);
        assert_eq!(ra.stats.search.popped, rc.stats.search.popped);
    }
}

/// Explicitly sharing one cache across *different* problems must change
/// neither problem's result — entries are keyed by environment content, so
/// a foreign problem's entries are unreachable.
#[test]
fn shared_cache_never_leaks_across_problems() {
    let cache = Arc::new(SearchCache::new());
    let ident_job = trivial_job("ident");
    let bool_job = BatchJob::new(
        "bool",
        || {
            let (env, _) = blog_env();
            let problem = SynthesisProblem::builder("m")
                .returns(Ty::Bool)
                .base_consts()
                .spec(Spec::new(
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
        Options::default(),
    );
    let shared_a = ident_job.run_shared(&cache);
    let shared_b = bool_job.run_shared(&cache);
    let solo_a = ident_job.run();
    let solo_b = bool_job.run();
    assert_eq!(
        shared_a.result.unwrap().program.to_string(),
        solo_a.result.unwrap().program.to_string()
    );
    assert_eq!(
        shared_b.result.unwrap().program.to_string(),
        solo_b.result.unwrap().program.to_string()
    );
}

/// Regression: `Synthesizer::new` must reset effect precision *and* the
/// constant set symmetrically from the new run's configuration, so an
/// environment that already carries a previous problem's configuration
/// cannot leak it into this run.
#[test]
fn synthesizer_reuse_resets_precision_and_consts() {
    let (env, _) = blog_env();
    // Simulate a previous problem's residue: coarse precision, stray Σ.
    let mut dirty = env.clone();
    dirty.table.set_precision(rbsyn_ty::EffectPrecision::Purity);
    dirty.table.add_const(Value::str("stale"));
    dirty.table.add_const(Value::Int(999));

    let problem = || {
        SynthesisProblem::builder("m")
            .returns(Ty::Bool)
            .base_consts()
            .spec(Spec::new(
                "returns true",
                vec![SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![],
                }],
                vec![call(var("xr"), "==", [true_()])],
            ))
            .build()
    };
    let opts = Options::default();

    let from_dirty = Synthesizer::new(dirty, problem(), opts.clone());
    // The configured table reflects THIS run, not the residue.
    assert_eq!(
        from_dirty.env().table.precision(),
        rbsyn_ty::EffectPrecision::Precise
    );
    let consts: Vec<&Value> = from_dirty
        .env()
        .table
        .consts()
        .iter()
        .map(|(v, _)| v)
        .collect();
    assert_eq!(
        consts.len(),
        5,
        "exactly the problem's base consts: {consts:?}"
    );
    assert!(!consts.contains(&&Value::str("stale")));

    // And the run behaves exactly as from a pristine environment — same
    // program, same effort.
    let clean = Synthesizer::new(blog_env().0, problem(), opts)
        .run()
        .unwrap();
    let dirty_run = from_dirty.run().unwrap();
    assert_eq!(dirty_run.program.to_string(), clean.program.to_string());
    assert_eq!(dirty_run.stats.search.tested, clean.stats.search.tested);
}

/// The configured-environment fingerprint must separate precision and
/// constant configurations, so cache reuse between differently configured
/// runs is structurally impossible.
#[test]
fn env_fingerprints_separate_configurations() {
    let (env, _) = blog_env();
    let base = env.table.fingerprint();
    let mut coarse = env.table.clone();
    coarse.set_precision(rbsyn_ty::EffectPrecision::Purity);
    assert_ne!(base, coarse.fingerprint());
    let mut more_consts = env.table.clone();
    more_consts.add_const(Value::Int(123));
    assert_ne!(base, more_consts.fingerprint());
    more_consts.clear_consts();
    // Σ cleared entirely differs from the original Σ as well.
    assert_ne!(base, more_consts.fingerprint());
}
