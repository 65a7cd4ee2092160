//! Engine determinism: programs and effort counters must be a pure
//! function of the problem — never of the batch it runs in, the batch's
//! width, or tracing.
//!
//! * multi-spec problems (phase 1 with and without solution reuse, a
//!   Rule-3 guard pair in the merge) are submitted twice to one batch, run
//!   at one and at two job threads, and every outcome must equal a lone
//!   `Synthesizer` run: program text, effort counters, tuples, size and
//!   paths;
//! * a property test sweeps randomized spec sets through the same check;
//! * tracing must leave programs and effort counters unchanged.

use proptest::prelude::*;
use rbsyn_core::{run_batch, BatchJob, Options, SynthResult, SynthesisProblem, Synthesizer};
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
/// so phase 1 never searches them.
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

/// Solves the problem `build` makes once on its own, then submits it
/// twice to one batch at one and at two job threads, and demands that
/// every batch outcome equal the lone run. Returns the lone run.
fn assert_batch_width_independent<F>(build: F) -> SynthResult
where
    F: Fn() -> (InterpEnv, SynthesisProblem) + Clone + Send + Sync + 'static,
{
    let (env, problem) = build();
    let lone = Synthesizer::new(env, problem, Options::default())
        .run()
        .expect("determinism problems are solvable");
    let jobs: Vec<BatchJob> = ["first", "second"]
        .into_iter()
        .map(|id| BatchJob::new(id, build.clone(), Options::default()))
        .collect();
    for threads in [1, 2] {
        let report = run_batch(&jobs, threads);
        assert_eq!(report.stats.threads, threads);
        for o in &report.outcomes {
            let r = o
                .result
                .as_ref()
                .expect("determinism problems are solvable");
            let at = format!("job {} at {threads} job thread(s)", o.id);
            assert_eq!(
                r.program.to_string(),
                lone.program.to_string(),
                "programs must be byte-identical: {at}"
            );
            assert_eq!(
                r.stats.search.effort(),
                lone.stats.search.effort(),
                "effort counters must not depend on the batch: {at}"
            );
            assert_eq!(r.stats.tuples, lone.stats.tuples, "{at}");
            assert_eq!(r.stats.solution_size, lone.stats.solution_size, "{at}");
            assert_eq!(r.stats.solution_paths, lone.stats.solution_paths, "{at}");
        }
    }
    lone
}

#[test]
fn guard_pair_merge_is_batch_width_independent() {
    assert_batch_width_independent(branching_problem);
}

#[test]
fn solution_reuse_is_batch_width_independent() {
    let lone = assert_batch_width_independent(reuse_problem);
    assert_eq!(
        lone.stats.tuples, 1,
        "specs b and c must reuse spec a's solution"
    );
}

#[test]
fn tracing_is_invisible() {
    // The `--trace` invariant: instrumentation only *reads* engine state,
    // so tracing on vs off must synthesize byte-identical programs with
    // identical effort counters. The full-benchmark version of this gate
    // is the CI `trace` determinism leg (it diffs `solve` stdout and
    // `--json` output).
    let run = |trace: bool| {
        let (env, problem) = branching_problem();
        let opts = Options {
            trace: trace.then(|| rbsyn_trace::TraceConfig::with_sample(1)),
            ..Options::default()
        };
        Synthesizer::new(env, problem, opts).run().unwrap()
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(
        off.program.to_string(),
        on.program.to_string(),
        "tracing must not change the program"
    );
    assert_eq!(
        off.stats.search.effort(),
        on.stats.search.effort(),
        "tracing must not change effort counters"
    );
    assert_eq!(off.stats.tuples, on.stats.tuples);
    assert_eq!(off.stats.solution_size, on.stats.solution_size);
    assert_eq!(off.stats.solution_paths, on.stats.solution_paths);
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

/// Randomized spec sets: any subset/ordering of these specs must solve
/// identically alone and in a batch at any width (programs and effort
/// counters).
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
    fn random_spec_sets_are_batch_width_independent(mask in arb_spec_mask()) {
        assert_batch_width_independent(move || masked_problem(&mask));
    }
}
