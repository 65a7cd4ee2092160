//! Command-line contract of the `specgen` binary.

use std::process::Command;

/// A numeric flag whose value does not parse is a usage error (exit 2)
/// naming the flag, not a silent run with the default.
#[test]
fn malformed_numeric_flag_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_specgen"))
        .args(["--fuzz", "1", "--seed", "abc"])
        .output()
        .expect("specgen binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--seed"), "{stderr}");
    assert!(stderr.contains("abc"), "{stderr}");
}
