//! Deadline propagation: `SynthError::Timeout` must surface from both
//! phases of the pipeline — the phase-1 per-spec search (`generate`) and
//! the phase-2 merge (`merge_program`) — and the batch driver must confine
//! one job's timeout to that job.

use rbsyn_core::batch::{run_batch, BatchJob};
use rbsyn_core::engine::Scheduler;
use rbsyn_core::generate::{generate, SearchStats, SpecOracle};
use rbsyn_core::merge::{merge_program, MergeCtx, Tuple};
use rbsyn_core::{Options, SynthError, SynthesisProblem, Synthesizer};
use rbsyn_interp::{InterpEnv, SetupStep, Spec};
use rbsyn_lang::builder::*;
use rbsyn_lang::Ty;
use rbsyn_stdlib::EnvBuilder;
use std::time::{Duration, Instant};

fn env() -> InterpEnv {
    EnvBuilder::with_stdlib().finish()
}

/// A spec no candidate can ever pass (`assert false`), so the search runs
/// until some budget stops it.
fn unsatisfiable_spec() -> Spec {
    Spec::new(
        "unsatisfiable",
        vec![SetupStep::CallTarget {
            bind: "xr".into(),
            args: vec![],
        }],
        vec![false_()],
    )
}

/// An already-expired deadline: the next deadline check must fire.
fn expired() -> Option<Instant> {
    Some(Instant::now())
}

/// A scheduler with an already-expired deadline and no cache.
fn expired_sched() -> Scheduler {
    Scheduler::new(expired())
}

#[test]
fn phase1_generate_surfaces_timeout() {
    let env = env();
    let spec = unsatisfiable_spec();
    let opts = Options::default();
    let mut stats = SearchStats::default();
    let r = generate(
        &env,
        "m",
        &[],
        &Ty::Bool,
        &SpecOracle::new(&env, &spec),
        &opts,
        6,
        &expired_sched(),
        &mut stats,
    );
    assert!(matches!(r, Err(SynthError::Timeout)), "got {r:?}");
    // The search did run up to the deadline check, not zero work.
    assert!(stats.popped > 0);
}

#[test]
fn phase2_merge_surfaces_timeout() {
    let env = env();
    let spec = unsatisfiable_spec();
    let opts = Options::default();
    let mut stats = SearchStats::default();
    let spec_oracles = vec![SpecOracle::new(&env, &spec)];
    let sched = expired_sched();
    let mut ctx = MergeCtx {
        env: &env,
        name: "m".into(),
        params: &[],
        specs: std::slice::from_ref(&spec),
        spec_oracles: &spec_oracles,
        opts: &opts,
        sched: &sched,
        stats: &mut stats,
        guard_time: Duration::ZERO,
        known_conds: Vec::new(),
        guards: rbsyn_core::guards::GuardPool::new(),
    };
    let tuples = vec![Tuple {
        expr: true_(),
        cond: true_(),
        specs: vec![0],
    }];
    let r = merge_program(&mut ctx, tuples);
    assert!(matches!(r, Err(SynthError::Timeout)), "got {r:?}");
}

#[test]
fn whole_pipeline_times_out_on_unsatisfiable_problem() {
    let problem = SynthesisProblem::builder("m")
        .returns(Ty::Bool)
        .base_consts()
        .spec(unsatisfiable_spec())
        .build();
    let opts = Options {
        timeout: Some(Duration::from_millis(40)),
        ..Options::default()
    };
    let started = Instant::now();
    let r = Synthesizer::new(env(), problem, opts).run();
    assert!(matches!(r, Err(SynthError::Timeout)), "got {r:?}");
    // The deadline is a real-time bound, not a best-effort suggestion:
    // generous slack only to absorb CI scheduling noise.
    assert!(started.elapsed() < Duration::from_secs(10));
}

#[test]
fn batch_driver_isolates_timeouts_per_job() {
    let solvable = |id: &str| {
        BatchJob::new(
            id,
            || {
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
                (env(), problem)
            },
            // No deadline at all: only the doomed sibling carries one.
            Options {
                timeout: None,
                ..Options::default()
            },
        )
    };
    let doomed = BatchJob::new(
        "doomed",
        || {
            let problem = SynthesisProblem::builder("m")
                .returns(Ty::Bool)
                .base_consts()
                .spec(unsatisfiable_spec())
                .build();
            (env(), problem)
        },
        Options {
            timeout: Some(Duration::from_millis(30)),
            ..Options::default()
        },
    );

    let jobs = vec![solvable("ok0"), doomed, solvable("ok1")];
    let report = run_batch(&jobs, 3);
    assert_eq!(report.outcomes.len(), 3);
    assert!(
        report.outcomes[0].solved(),
        "ok0: {:?}",
        report.outcomes[0].result
    );
    assert!(
        matches!(report.outcomes[1].result, Err(SynthError::Timeout)),
        "doomed must time out: {:?}",
        report.outcomes[1].result
    );
    assert!(
        report.outcomes[2].solved(),
        "ok1: {:?}",
        report.outcomes[2].result
    );
    assert_eq!(report.stats.timeouts, 1);
    assert_eq!(report.stats.solved, 2);
}
