//! Cross-crate integration tests: run a representative subset of the
//! Table 1 benchmarks end-to-end and re-validate every synthesized program
//! against its specs with a fresh interpreter.
//!
//! The slowest benchmarks are exercised by CI's suite job (`solve --all
//! --compare` in release) rather than here, keeping `cargo test`
//! wall-clock reasonable in debug builds.

use rbsyn::core::{Options, Synthesizer};
use rbsyn::interp::run_spec;
use rbsyn::suite::{all_benchmarks, benchmark};
use std::time::Duration;

/// Benchmarks fast enough for CI-style testing even unoptimized.
const FAST: &[&str] = &["S1", "S2", "S3", "S4", "S5", "S7", "A5", "A7", "A10", "A11"];

fn synthesize(id: &str) -> (rbsyn::interp::InterpEnv, rbsyn::lang::Program) {
    let b = benchmark(id).unwrap_or_else(|| panic!("benchmark {id} exists"));
    let (env, problem) = (b.build)();
    let opts = Options {
        timeout: Some(Duration::from_secs(120)),
        ..(b.options)()
    };
    let specs = problem.specs.clone();
    let result = Synthesizer::new(env, problem, opts)
        .run()
        .unwrap_or_else(|e| panic!("{id} must synthesize: {e}"));
    // Re-validate in a *fresh* environment: the solution must not depend on
    // any state left behind by the search.
    let (env2, _) = (b.build)();
    for s in &specs {
        assert!(
            run_spec(&env2, s, &result.program).passed(),
            "{id}: synthesized program fails spec {:?}\n{}",
            s.name,
            result.program
        );
    }
    (env2, result.program)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "covered per-benchmark below; heavy in debug"
)]
fn fast_benchmarks_synthesize_and_revalidate() {
    for id in FAST {
        let (_, program) = synthesize(id);
        assert!(
            rbsyn::lang::metrics::program_size(&program) > 0,
            "{id} produced an empty program"
        );
    }
}

#[test]
fn s1_is_the_identity() {
    let (_, p) = synthesize("S1");
    assert_eq!(p.body.compact(), "arg0");
}

#[test]
fn s2_returns_false() {
    let (_, p) = synthesize("S2");
    assert_eq!(p.body.compact(), "false");
}

#[test]
fn s3_is_a_query_chain() {
    let (_, p) = synthesize("S3");
    let s = p.body.compact();
    assert!(s.contains("User."), "got {s}");
    assert!(s.ends_with(".name"), "got {s}");
}

#[test]
fn s4_folds_to_a_single_query() {
    let (_, p) = synthesize("S4");
    assert_eq!(rbsyn::lang::metrics::program_paths(&p), 1, "\n{p}");
    let s = p.body.compact();
    assert!(s.contains("User."), "got {s}");
}

#[test]
fn s5_branches_on_existence() {
    let (_, p) = synthesize("S5");
    assert_eq!(rbsyn::lang::metrics::program_paths(&p), 2, "\n{p}");
}

#[test]
fn s7_folds_three_specs_into_one_line() {
    let (_, p) = synthesize("S7");
    assert_eq!(rbsyn::lang::metrics::program_paths(&p), 1, "\n{p}");
    let s = p.body.compact();
    assert!(s.contains("Post."), "got {s}");
}

#[test]
fn a7_flips_the_state_column() {
    let (_, p) = synthesize("A7");
    let s = p.body.compact();
    assert!(s.contains("state"), "got {s}");
    assert!(s.contains("\"closed\""), "got {s}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy in debug profile")]
fn a11_decrements_through_arithmetic() {
    let (_, p) = synthesize("A11");
    let s = p.body.compact();
    assert!(s.contains("count"), "got {s}");
}

#[test]
fn every_benchmark_builds_a_coherent_environment() {
    for b in all_benchmarks() {
        let (env, problem) = (b.build)();
        problem
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", b.id));
        // The constant set must be installable.
        let opts = (b.options)();
        let synth = Synthesizer::new(env, problem, opts);
        assert!(
            synth.env().table.search_visible_count() > 0,
            "{}: empty library",
            b.id
        );
    }
}
