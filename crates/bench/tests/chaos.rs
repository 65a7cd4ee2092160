//! Chaos suite: drives the real `solve` binary under injected faults and
//! pins the robustness contract end to end:
//!
//! * no fault profile ever aborts the process — every failure converts to
//!   a per-job exit code (`1` contained panic, `4` timeout);
//! * jobs *not* hit by a fault synthesize byte-identical programs and
//!   effort counters, panicking siblings or not;
//! * pure-delay profiles change nothing at all (stdout byte-identical).
//!
//! Fault injection needs the `failpoints` feature (`cargo test -p
//! rbsyn-bench --features failpoints`), which the CI `chaos` job enables;
//! without it this suite compiles to nothing.

#![cfg(feature = "failpoints")]

use std::process::{Command, Output};

/// The fault-matrix subset: fast solvers spanning the search features —
/// constant/var solutions (S1, S2), query chains (S3, S4), effect-guided
/// writes (A7) and branch merging (S5 solves to two paths).
const IDS: &str = "S1,S2,S3,S4,A7,S5";

fn solve(args: &[&str], failpoints: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_solve"));
    cmd.args(args);
    // Never inherit a profile from the ambient environment; tests set
    // exactly the faults they mean to.
    cmd.env_remove("RBSYN_FAILPOINTS");
    if let Some(spec) = failpoints {
        cmd.env("RBSYN_FAILPOINTS", spec);
    }
    cmd.output().expect("solve binary runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn baseline() -> String {
    let out = solve(&["--all", "--ids", IDS, "--parallel", "1"], None);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    stdout_of(&out)
}

/// Pure-delay profiles at every delay-capable site: synthesis slows
/// down, nothing else changes — stdout stays byte-identical and the
/// batch still exits 0.
#[test]
fn delay_profiles_change_nothing() {
    let base = baseline();
    for profile in [
        "interp::eval=delay(1)%5000",
        "guards::cover=delay(2)",
        "batch::claim=delay(5)",
    ] {
        let out = solve(&["--all", "--ids", IDS, "--parallel", "1"], Some(profile));
        assert_eq!(out.status.code(), Some(0), "{profile}: {}", stderr_of(&out));
        assert_eq!(
            base,
            stdout_of(&out),
            "{profile}: a delay must not change any output"
        );
    }
}

/// Panic profiles: the job owning the fault fails with a contained
/// `internal error` (batch exit 1), and every other job's output line
/// is byte-for-byte the baseline line.
#[test]
fn panic_profiles_are_contained_per_job() {
    let base = baseline();
    // Sequential dispatch makes hit attribution deterministic:
    // `batch::claim` hit 2 is the second job (S2); the first
    // `interp::eval` hit is inside the first job (S1); S4 is the first
    // job whose merge issues a guard-covering query.
    for (profile, victim) in [
        ("batch::claim=panic@2", "S2"),
        ("interp::eval=panic@1", "S1"),
        ("guards::cover=panic@1", "S4"),
    ] {
        let out = solve(&["--all", "--ids", IDS, "--parallel", "1"], Some(profile));
        assert_eq!(
            out.status.code(),
            Some(1),
            "{profile}: a contained panic is exit 1, not an abort:\n{}",
            stderr_of(&out)
        );
        let stdout = stdout_of(&out);
        for (base_line, line) in base.lines().zip(stdout.lines()) {
            if line.starts_with(victim) {
                assert!(
                    line.contains("failed  internal error"),
                    "{profile}: victim must report a contained panic: {line}"
                );
            } else {
                assert_eq!(
                    base_line, line,
                    "{profile}: jobs not hit by the fault must be unaffected"
                );
            }
        }
    }
}
