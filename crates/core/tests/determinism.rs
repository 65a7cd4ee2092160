//! Engine determinism: programs and effort counters must be a pure
//! function of the problem — never of the speculation width (`--intra`)
//! or cache state.
//!
//! * `--intra 1` vs `--intra 4` over multi-spec problems (phase 1 with
//!   and without solution reuse, a Rule-3 guard pair in the merge) must
//!   produce byte-identical programs and identical effort counters;
//! * a property test sweeps randomized spec sets through both widths.

use proptest::prelude::*;
use rbsyn_core::{Options, SynthResult, SynthesisProblem, Synthesizer};
use rbsyn_interp::{InterpEnv, SetupStep, Spec};
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

/// A two-spec problem whose merge needs a Rule-3 guard pair and whose
/// phase 1 has no reuse.
fn branching_problem() -> (InterpEnv, SynthesisProblem) {
    let (env, post) = blog_env();
    let seeded = Spec::new(
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
    let empty = Spec::new(
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
}

/// A three-spec problem where specs 2 and 3 are served by solution reuse,
/// so phase 1 never searches them at any width.
fn reuse_problem() -> (InterpEnv, SynthesisProblem) {
    let (env, _) = blog_env();
    let mk = |name: &str| {
        Spec::new(
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
        .spec(mk("c"))
        .build();
    (env, problem)
}

fn run_with(build: &dyn Fn() -> (InterpEnv, SynthesisProblem), intra: usize) -> SynthResult {
    let (env, problem) = build();
    let opts = Options {
        intra_parallelism: intra,
        ..Options::default()
    };
    Synthesizer::new(env, problem, opts)
        .run()
        .expect("determinism problems are solvable")
}

fn assert_width_independent(build: &dyn Fn() -> (InterpEnv, SynthesisProblem)) {
    let seq = run_with(build, 1);
    let par = run_with(build, 4);
    assert_eq!(
        seq.program.to_string(),
        par.program.to_string(),
        "programs must be byte-identical"
    );
    assert_eq!(
        seq.stats.search.effort(),
        par.stats.search.effort(),
        "effort counters must be width-independent"
    );
    assert_eq!(seq.stats.tuples, par.stats.tuples);
    assert_eq!(seq.stats.solution_size, par.stats.solution_size);
    assert_eq!(seq.stats.solution_paths, par.stats.solution_paths);
}

#[test]
fn guard_pair_merge_is_width_independent() {
    assert_width_independent(&branching_problem);
}

#[test]
fn solution_reuse_is_width_independent() {
    let seq = run_with(&reuse_problem, 1);
    let par = run_with(&reuse_problem, 4);
    assert_eq!(seq.program.to_string(), par.program.to_string());
    assert_eq!(seq.stats.search.effort(), par.stats.search.effort());
    assert_eq!(
        seq.stats.tuples, 1,
        "specs b and c must reuse spec a's solution"
    );
    assert_eq!(par.stats.tuples, 1);
}

#[test]
fn obs_equiv_pruning_preserves_programs() {
    // Observational-equivalence dedup may only change *how much work*
    // finds the program, never the program: pruning on vs off must
    // synthesize byte-identical programs (and sizes/paths) while doing no
    // more work with pruning enabled. The full-corpus version of this
    // gate is the CI `obs-equiv` determinism leg and the trajectory's
    // `no-obs-equiv` row.
    let run = |build: &dyn Fn() -> (InterpEnv, SynthesisProblem), obs: bool| {
        let (env, problem) = build();
        let opts = Options {
            obs_equiv: obs,
            ..Options::default()
        };
        Synthesizer::new(env, problem, opts)
            .run()
            .expect("determinism problems are solvable")
    };
    for build in [
        &branching_problem as &dyn Fn() -> (InterpEnv, SynthesisProblem),
        &reuse_problem,
    ] {
        let on = run(build, true);
        let off = run(build, false);
        assert_eq!(
            on.program.to_string(),
            off.program.to_string(),
            "pruning must not change the synthesized program"
        );
        assert_eq!(on.stats.solution_size, off.stats.solution_size);
        assert_eq!(on.stats.solution_paths, off.stats.solution_paths);
        assert!(
            on.stats.search.tested <= off.stats.search.tested,
            "pruning must never test more candidates"
        );
        assert_eq!(
            off.stats.search.obs_pruned, 0,
            "disabled pruning counts nothing"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_spec_sets_prune_identically(mask in arb_spec_mask()) {
        // Property form of the obs-equiv gate over randomized spec sets.
        let run = |obs: bool| {
            let (env, problem) = masked_problem(&mask);
            let opts = Options { obs_equiv: obs, ..Options::default() };
            Synthesizer::new(env, problem, opts).run().expect("solvable")
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(on.program.to_string(), off.program.to_string());
        prop_assert!(on.stats.search.tested <= off.stats.search.tested);
    }
}

#[test]
fn tracing_is_invisible_at_any_width() {
    // The `--trace` invariant: instrumentation only *reads* engine state,
    // so tracing on vs off must synthesize byte-identical programs with
    // identical effort counters — sequentially and at `--intra 4`, where
    // speculation workers and task threads record on their own tracks.
    // The full-benchmark version of this gate is the CI `trace`
    // determinism leg (it diffs `solve` stdout and `--json` output).
    let run = |intra: usize, trace: bool| {
        let (env, problem) = branching_problem();
        let opts = Options {
            intra_parallelism: intra,
            trace: trace.then(|| rbsyn_trace::TraceConfig::with_sample(1)),
            ..Options::default()
        };
        Synthesizer::new(env, problem, opts).run().unwrap()
    };
    for intra in [1, 4] {
        let off = run(intra, false);
        let on = run(intra, true);
        assert_eq!(
            off.program.to_string(),
            on.program.to_string(),
            "tracing must not change the program (intra {intra})"
        );
        assert_eq!(
            off.stats.search.effort(),
            on.stats.search.effort(),
            "tracing must not change effort counters (intra {intra})"
        );
        assert_eq!(off.stats.tuples, on.stats.tuples);
        assert_eq!(off.stats.solution_size, on.stats.solution_size);
        assert_eq!(off.stats.solution_paths, on.stats.solution_paths);
    }
}

#[test]
fn attached_tracer_records_the_run_without_changing_it() {
    // The CLI path: an externally attached session records real events
    // (phase spans, marks, a counter track) while the result stays
    // byte-identical to an untraced run.
    let baseline = {
        let (env, problem) = branching_problem();
        Synthesizer::new(env, problem, Options::default())
            .run()
            .unwrap()
    };
    let session = rbsyn_trace::Session::new(rbsyn_trace::TraceConfig::with_sample(1));
    let traced = {
        let (env, problem) = branching_problem();
        let opts = Options {
            trace: Some(rbsyn_trace::TraceConfig::with_sample(1)),
            ..Options::default()
        };
        Synthesizer::new(env, problem, opts)
            .with_tracer(session.clone())
            .run()
            .unwrap()
    };
    assert_eq!(baseline.program.to_string(), traced.program.to_string());
    assert_eq!(baseline.stats.search.effort(), traced.stats.search.effort());
    let trace = session.finish();
    let json = trace.to_chrome_json(&[]);
    let summary = rbsyn_trace::schema::check_chrome_trace(&json)
        .expect("engine-emitted traces satisfy the schema");
    for span in ["solve", "generate", "guard", "eval", "merge"] {
        assert!(
            summary.span_names.contains(span),
            "missing span {span:?} in {:?}",
            summary.span_names
        );
    }
    assert!(
        summary.counter_tracks.contains("search-stats"),
        "missing counter track in {:?}",
        summary.counter_tracks
    );
}

#[test]
fn caching_is_invisible_at_any_width() {
    let run = |intra: usize, cache: bool| {
        let (env, problem) = branching_problem();
        let opts = Options {
            intra_parallelism: intra,
            cache,
            ..Options::default()
        };
        Synthesizer::new(env, problem, opts).run().unwrap()
    };
    let reference = run(1, true);
    for (intra, cache) in [(1, false), (4, true), (4, false)] {
        let r = run(intra, cache);
        assert_eq!(
            reference.program.to_string(),
            r.program.to_string(),
            "intra {intra}, cache {cache}"
        );
        assert_eq!(
            reference.stats.search.effort(),
            r.stats.search.effort(),
            "intra {intra}, cache {cache}"
        );
    }
}

/// Randomized spec sets: any subset/ordering of these specs must solve
/// identically at both widths (programs and effort counters).
fn arb_spec_mask() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..4, 1..4)
}

fn masked_problem(mask: &[usize]) -> (InterpEnv, SynthesisProblem) {
    let (env, post) = blog_env();
    let specs: Vec<Spec> = mask
        .iter()
        .map(|&which| match which {
            // Constant result.
            0 => Spec::new(
                "one",
                vec![SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![str_("x")],
                }],
                vec![call(var("xr"), "==", [int(1)])],
            ),
            // Identity-flavoured: result equals the argument's length
            // bucket — solved by a constant too, enabling reuse chains.
            1 => Spec::new(
                "one again",
                vec![SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![str_("y")],
                }],
                vec![call(var("xr"), "==", [int(1)])],
            ),
            // DB-dependent: seeded world, result 0.
            2 => Spec::new(
                "seeded zero",
                vec![
                    SetupStep::Exec(call(cls(post), "create", [hash([("slug", str_("s"))])])),
                    SetupStep::CallTarget {
                        bind: "xr".into(),
                        args: vec![str_("z")],
                    },
                ],
                vec![call(var("xr"), "==", [int(0)])],
            ),
            // Doubly-seeded world, also result 0 (reuses spec 2's
            // solution when both appear; still distinguishable from the
            // empty-world specs by any emptiness test).
            _ => Spec::new(
                "doubly seeded zero",
                vec![
                    SetupStep::Exec(call(cls(post), "create", [hash([("slug", str_("a"))])])),
                    SetupStep::Exec(call(cls(post), "create", [hash([("slug", str_("b"))])])),
                    SetupStep::CallTarget {
                        bind: "xr".into(),
                        args: vec![str_("w")],
                    },
                ],
                vec![call(var("xr"), "==", [int(0)])],
            ),
        })
        .collect();
    let mut b = SynthesisProblem::builder("m")
        .param("arg0", Ty::Str)
        .returns(Ty::Int)
        .base_consts()
        .constant(Value::Class(post));
    for s in specs {
        b = b.spec(s);
    }
    (env, b.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_spec_sets_are_width_independent(mask in arb_spec_mask()) {
        let build = move || masked_problem(&mask);
        let seq = run_with(&build, 1);
        let par = run_with(&build, 4);
        prop_assert_eq!(seq.program.to_string(), par.program.to_string());
        prop_assert_eq!(seq.stats.search.effort(), par.stats.search.effort());
    }
}
