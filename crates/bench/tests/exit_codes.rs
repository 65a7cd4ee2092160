//! End-to-end exit-code contract for `solve`, driven through the real
//! binary so the process-level codes (not just the internal mapping) are
//! pinned: 1 = contained panic / other failure, 2 = usage, 3 = parse/lower
//! failure, 4 = timeout (including watchdog kills), 5 = search budget
//! exhausted with no solution, 6 = shed by admission control.
//!
//! The fault-injected legs (`chaos` module) need the `failpoints` feature:
//! `cargo test -p rbsyn-bench --features failpoints`.

use std::path::Path;
use std::process::Command;

fn solve_spec(fixture: &str) -> std::process::Output {
    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../suite/tests/fixtures"
    ))
    .join(fixture);
    Command::new(env!("CARGO_BIN_EXE_solve"))
        .arg("--spec")
        .arg(&path)
        .output()
        .expect("solve binary runs")
}

#[test]
fn solve_spec_parse_error_exits_3() {
    let out = solve_spec("parse_error.rbspec");
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error:"),
        "diagnostic must be rendered on stderr: {stderr}"
    );
}

#[test]
fn solve_spec_timeout_exits_4() {
    let out = solve_spec("timeout.rbspec");
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn solve_spec_no_solution_exits_5() {
    let out = solve_spec("no_solution.rbspec");
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn solve_unknown_flag_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_solve"))
        .arg("--no-such-flag")
        .output()
        .expect("solve binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The shed path needs no fault injection: a zero global deadline is an
/// already-spent budget, so admission control deterministically sheds
/// every job and the batch exits 6.
#[test]
fn batch_zero_global_deadline_sheds_and_exits_6() {
    let out = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args([
            "--all",
            "--ids",
            "S1,S2,S3",
            "--parallel",
            "1",
            "--global-deadline",
            "0",
        ])
        .output()
        .expect("solve binary runs");
    assert_eq!(
        out.status.code(),
        Some(6),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("shed by admission control").count(),
        3,
        "all three jobs must be shed:\n{stdout}"
    );
}

/// `--global-deadline` would make the `--compare` byte-diff meaningless;
/// the combination is a usage error, not a silent downgrade.
#[test]
fn global_deadline_with_compare_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args(["--all", "--compare", "--global-deadline", "5"])
        .output()
        .expect("solve binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A timeout no `Instant` can represent means "no deadline", not a
/// panic: the run solves and exits 0.
#[test]
fn unrepresentable_timeout_solves_and_exits_0() {
    let spec = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../benchmarks/S1.rbspec"
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_solve"))
        .arg("--spec")
        .arg(spec)
        .args(["--timeout", &u64::MAX.to_string()])
        .output()
        .expect("solve binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `RBSYN_RUNS=0` is clamped to one timed run instead of asking for the
/// median of an empty sample.
#[test]
fn table1_with_zero_runs_exits_0() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env("RBSYN_RUNS", "0")
        .env("RBSYN_BENCH_IDS", "S1")
        .output()
        .expect("table1 binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("S1"));
}

/// Fault-injected exit-code legs — compiled only with `--features
/// failpoints` (the production binary carries no injection code).
#[cfg(feature = "failpoints")]
mod chaos {
    use super::*;

    /// A panic in the second job of a batch converts to a per-job
    /// `internal error` (exit 1) while its siblings still solve.
    #[test]
    fn batch_contained_panic_exits_1_and_spares_siblings() {
        let out = Command::new(env!("CARGO_BIN_EXE_solve"))
            .args(["--all", "--ids", "S1,S2,S3", "--parallel", "1"])
            .env("RBSYN_FAILPOINTS", "batch::claim=panic@2")
            .output()
            .expect("solve binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("S2   failed  internal error"),
            "the faulted job must report a contained panic:\n{stdout}"
        );
        assert!(
            stdout.contains("S1   solved") && stdout.contains("S3   solved"),
            "sibling jobs must be unaffected:\n{stdout}"
        );
    }

    /// A panic inside candidate evaluation in single-benchmark mode is
    /// contained by the supervisor in `solve` itself: exit 1, not a
    /// process abort (which would surface as exit 101 / a signal).
    #[test]
    fn single_mode_contained_panic_exits_1() {
        let out = Command::new(env!("CARGO_BIN_EXE_solve"))
            .arg("S1")
            .env("RBSYN_FAILPOINTS", "interp::eval=panic@1")
            .output()
            .expect("solve binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("S1 failed"),
            "the failure must be reported, not aborted:\n{stdout}"
        );
    }

    /// With the interpreter stalled by injected delays, the run still
    /// exits 4 within the hard (watchdog) deadline — a stuck eval cannot
    /// outlive `timeout × grace`.
    #[test]
    fn stalled_interpreter_still_exits_4() {
        let out = Command::new(env!("CARGO_BIN_EXE_solve"))
            .arg("--spec")
            .arg(
                Path::new(concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../suite/tests/fixtures"
                ))
                .join("timeout.rbspec"),
            )
            .env("RBSYN_FAILPOINTS", "interp::eval=delay(10)")
            .output()
            .expect("solve binary runs");
        assert_eq!(
            out.status.code(),
            Some(4),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
