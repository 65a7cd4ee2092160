//! End-to-end exit-code contract for `solve`, driven through the real
//! binary so the process-level codes (not just the internal mapping) are
//! pinned: 1 = contained panic / other failure, 2 = usage, 3 = parse/lower
//! failure, 4 = timeout (cooperative or hard deadline), 5 = search budget
//! exhausted with no solution.
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

/// A numeric flag with a value that is not an unsigned integer, and an
/// unknown flag, are usage errors that name the offending value (the
/// usage text itself names every flag, so the check is on the value).
#[test]
fn solve_bad_flag_values_exit_2_and_name_them() {
    let cases: [&[&str]; 5] = [
        &["--all", "--parallel", "abc"],
        &["--timeout", "-1"],
        &["--timeout", "1e400"],
        &["--trace", "t.json", "--trace-sample", "x"],
        &["--bogus"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_solve"))
            .args(args)
            .output()
            .expect("solve binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let value = args[args.len() - 1];
        assert!(
            stderr.contains(&format!("{value:?}")),
            "{args:?}: stderr does not name {value:?}: {stderr}"
        );
    }
}

/// A positional argument past `<ID> [timeout_secs]` is a usage error
/// that names it, not silently ignored.
#[test]
fn solve_extra_positional_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args(["S1", "10", "junk"])
        .output()
        .expect("solve binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("\"junk\""), "{stderr}");
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

/// An id list that selects nothing is a usage error for every binary
/// that reads one, never a run over zero (or all) problems that exits 0.
#[test]
fn table1_unknown_bench_id_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env("RBSYN_BENCH_IDS", "ZZ")
        .output()
        .expect("table1 binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark id(s) [\"ZZ\"]"));
}

#[test]
fn solve_empty_id_list_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args(["--all", "--ids", ","])
        .output()
        .expect("solve binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("names no benchmark id"));
}

/// A `--json` path under `name`, in a directory that does not exist.
fn unwritable_json(name: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("missing-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("d").join("x.json")
}

/// An output file that cannot be written is reported after the run —
/// exit 1 with the path on stderr — never a panic (exit 101).
fn assert_unwritable_output_exits_1(out: &std::process::Output, path: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("cannot write --json file {}", path.display())),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

#[test]
fn solve_unwritable_json_path_exits_1() {
    let path = unwritable_json("solve");
    let out = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args(["--all", "--ids", "S1", "--json"])
        .arg(&path)
        .output()
        .expect("solve binary runs");
    assert_unwritable_output_exits_1(&out, &path);
}

#[test]
fn table1_unwritable_json_path_exits_1() {
    let path = unwritable_json("table1");
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env("RBSYN_BENCH_IDS", "S1")
        .env("RBSYN_RUNS", "1")
        .arg("--json")
        .arg(&path)
        .output()
        .expect("table1 binary runs");
    assert_unwritable_output_exits_1(&out, &path);
}

/// A numeric environment variable that does not parse is a usage error,
/// not a silent fall-back to its default.
#[test]
fn table1_malformed_timeout_env_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env("RBSYN_TIMEOUT_SECS", "1.5")
        .env("RBSYN_BENCH_IDS", "S1")
        .output()
        .expect("table1 binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("RBSYN_TIMEOUT_SECS"), "{stderr}");
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
    /// exits 4: the cooperative deadline poll ends it, and the
    /// evaluator's hard-deadline check backs that poll up at
    /// `timeout × GRACE`.
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
