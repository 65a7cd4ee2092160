//! The benchmark's own correctness check: every returned program is run
//! again on every spec of its problem, in a freshly lowered environment,
//! with the interpreter's public spec runner. It shares nothing with the
//! synthesizer's merge-time validation but the interpreter.

use rbsyn_front::ast::SpecFile;
use rbsyn_interp::run_spec;
use rbsyn_lang::Program;

/// `Ok` when `program` passes every spec of the problem `file` states,
/// else the first failing spec and its outcome.
pub fn validate(file: &SpecFile, program: &Program) -> Result<(), String> {
    let lowered = rbsyn_front::lower(file).map_err(|d| format!("re-lowering failed: {d:?}"))?;
    for spec in &lowered.problem.specs {
        let outcome = run_spec(&lowered.env, spec, program);
        if !outcome.passed() {
            return Err(format!("spec {:?}: {outcome:?}", spec.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbsyn_lang::{Expr, Symbol};

    fn s1() -> SpecFile {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../benchmarks/S1.rbspec");
        let source = std::fs::read_to_string(path).expect("S1.rbspec is readable");
        rbsyn_front::parse(&source).expect("S1.rbspec parses")
    }

    fn echo(body: Expr) -> Program {
        Program::from_parts(Symbol::intern("echo"), vec![Symbol::intern("arg0")], body)
    }

    #[test]
    fn accepts_the_identity_for_s1() {
        let body = rbsyn_lang::builder::var("arg0");
        assert_eq!(validate(&s1(), &echo(body)), Ok(()));
    }

    #[test]
    fn rejects_nil_as_the_body_of_s1() {
        let err = validate(&s1(), &echo(Expr::nil())).expect_err("nil does not echo");
        assert!(err.contains("returns its argument"), "{err}");
    }
}
