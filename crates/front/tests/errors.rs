//! Span accuracy: every parse/lower diagnostic must point at the exact
//! line and column of the offending token, with the right message.

use rbsyn_front::span::line_col;
use rbsyn_front::{lower, parse, Diagnostic};

/// Parses (and, if parsing succeeds, lowers) `src`, returning the
/// diagnostic it must produce.
fn expect_error(src: &str) -> (Diagnostic, &str) {
    match parse(src) {
        Err(d) => (d, src),
        Ok(file) => match lower(&file) {
            Err(d) => (d, src),
            Ok(_) => panic!("expected a diagnostic for:\n{src}"),
        },
    }
}

/// Asserts `src` fails with `msg_part` at `line:col`.
fn check(src: &str, msg_part: &str, line: usize, col: usize) {
    let (d, src) = expect_error(src);
    assert!(
        d.message.contains(msg_part),
        "expected message containing {msg_part:?}, got {:?}",
        d.message
    );
    let at = line_col(src, d.span.start);
    assert_eq!(at, (line, col), "span of {:?} in:\n{src}", d.message);
}

/// A minimal valid tail so environment-level errors are reached.
const TAIL: &str = "define m() -> Bool do
  spec \"s\" do
    updated = target()
    assert updated
  end
end
";

#[test]
fn bad_type_in_model_field() {
    let src = format!("model User do\n  name: Strr\nend\n{TAIL}");
    check(&src, "unknown type `Strr`", 2, 9);
}

#[test]
fn bad_type_in_param() {
    let src = "define m(arg0: Wat) -> Bool do\n  spec \"s\" do\n    updated = target()\n    assert updated\n  end\nend\n";
    check(src, "unknown type `Wat`", 1, 16);
}

#[test]
fn duplicate_model() {
    let src = format!("model User do\n  name: Str\nend\nmodel User do\n  age: Int\nend\n{TAIL}");
    check(&src, "duplicate class `User`", 4, 7);
}

#[test]
fn model_colliding_with_a_stdlib_class() {
    let src = format!("model String do\n  x: Str\nend\n{TAIL}");
    check(&src, "duplicate class `String`", 1, 7);
}

#[test]
fn duplicate_field() {
    let src = format!("model User do\n  name: Str\n  name: Str\nend\n{TAIL}");
    check(&src, "duplicate field `name`", 3, 3);
}

#[test]
fn explicit_id_column_is_rejected() {
    let src = format!("model User do\n  id: Int\nend\n{TAIL}");
    check(&src, "`id` column is implicit", 2, 3);
}

#[test]
fn unknown_effect_region() {
    let src = format!(
        "model User do\n  name: Str\nend\n\
         def User.touch() -> Bool writes(User.nmae) do\n  true\nend\n{TAIL}"
    );
    check(&src, "`User` has no region `nmae`", 4, 33);
}

#[test]
fn unknown_effect_class() {
    let src = format!("def Ghost.x() -> Bool reads(Ghost.a) do\n  true\nend\n{TAIL}");
    // The owner class is resolved first, so the error lands on `Ghost`.
    check(&src, "unknown class `Ghost`", 1, 5);
}

#[test]
fn unknown_effect_class_in_path() {
    let src = format!(
        "model User do\n  name: Str\nend\n\
         def User.x() -> Bool reads(Ghost.a) do\n  true\nend\n{TAIL}"
    );
    check(&src, "unknown class `Ghost` in effect path", 4, 28);
}

#[test]
fn unknown_global_field_in_effect_path() {
    let src = format!(
        "global Settings do\n  notice: Str\nend\n\
         def Settings.x() -> Bool reads(Settings.notic) do\n  true\nend\n{TAIL}"
    );
    check(&src, "`Settings` has no region `notic`", 4, 32);
}

#[test]
fn unknown_class_in_expression() {
    let src = "define m() -> Bool do\n  spec \"s\" do\n    Ghost.create({})\n    updated = target()\n    assert updated\n  end\nend\n";
    check(src, "unknown class `Ghost`", 3, 5);
}

#[test]
fn unknown_variable_in_assert() {
    let src = "define m() -> Bool do\n  spec \"s\" do\n    updated = target()\n    assert missing\n  end\nend\n";
    check(src, "unknown variable `missing`", 4, 12);
}

#[test]
fn assert_before_target() {
    let src = "define m() -> Bool do\n  spec \"s\" do\n    assert true\n    updated = target()\n  end\nend\n";
    check(src, "assertions must come after the target call", 3, 5);
}

#[test]
fn two_target_calls() {
    let src = "define m() -> Bool do\n  spec \"s\" do\n    updated = target()\n    again = target()\n    assert updated\n  end\nend\n";
    check(src, "only once", 4, 5);
}

#[test]
fn setup_after_asserts() {
    let src = "define m() -> Bool do\n  spec \"s\" do\n    updated = target()\n    assert updated\n    x = true\n  end\nend\n";
    check(src, "setup steps cannot follow assertions", 5, 5);
}

#[test]
fn spec_without_target() {
    let src = "define m() -> Bool do\n  spec \"no call\" do\n    x = true\n  end\nend\n";
    check(src, "never calls the target method", 2, 3);
}

#[test]
fn target_inside_expression() {
    let src =
        "define m() -> Bool do\n  spec \"s\" do\n    x = target().foo\n    assert x\n  end\nend\n";
    let (d, _) = expect_error(src);
    assert!(d.message.contains("cannot be part of a larger expression"));
}

#[test]
fn unknown_option_key() {
    let src = format!("options do\n  max_siez: 44\nend\n{TAIL}");
    check(&src, "unknown option `max_siez`", 2, 3);
}

#[test]
fn unknown_group() {
    let src = format!("benchmark do\n  group: Reddit\nend\n{TAIL}");
    check(&src, "unknown group `Reddit`", 2, 10);
}

#[test]
fn duplicate_hash_type_key() {
    let src = "define m(arg0: {a: Str, a: Int}) -> Bool do\n  spec \"s\" do\n    updated = target()\n    assert updated\n  end\nend\n";
    check(src, "duplicate hash-type key `a`", 1, 25);
}

#[test]
fn duplicate_parameter() {
    let src = "define m(arg0: Str, arg0: Int) -> Bool do\n  spec \"s\" do\n    updated = target()\n    assert updated\n  end\nend\n";
    check(src, "duplicate parameter `arg0`", 1, 21);
}

#[test]
fn define_with_no_specs() {
    let src = "define m() -> Bool do\nend\n";
    check(src, "has no specs", 1, 1);
}

#[test]
fn missing_define_block() {
    let src = "model User do\n  name: Str\nend\n";
    check(src, "no `define` block", 4, 1);
}

#[test]
fn duplicate_define_block() {
    let src = "define m() -> Bool do\n  spec \"s\" do\n    updated = target()\n    assert updated\n  end\nend\ndefine n() -> Bool do\n  spec \"s\" do\n    updated = target()\n    assert updated\n  end\nend\n";
    check(src, "duplicate `define`", 7, 1);
}

#[test]
fn unterminated_string() {
    let src = "define m() -> Bool do\n  spec \"oops\n";
    let (d, _) = expect_error(src);
    assert!(d.message.contains("unterminated string"));
}

#[test]
fn stray_character() {
    check(
        "model User do\n  name: Str\nend\n$\n",
        "unexpected character",
        4,
        1,
    );
}

#[test]
fn empty_def_body() {
    let src = format!("model User do\n  name: Str\nend\ndef User.x() -> Bool do\nend\n{TAIL}");
    let (d, _) = expect_error(&src);
    assert!(d.message.contains("empty body"), "{}", d.message);
}

#[test]
fn def_body_ending_in_a_binding() {
    let src = format!(
        "model User do\n  name: Str\nend\ndef User.x() -> Bool do\n  y = true\nend\n{TAIL}"
    );
    let (d, _) = expect_error(&src);
    assert!(d.message.contains("must be an expression"), "{}", d.message);
}

#[test]
fn rendered_diagnostics_carry_excerpt_and_caret() {
    let src = format!("model User do\n  name: Strr\nend\n{TAIL}");
    let (d, src) = expect_error(&src);
    let rendered = d.render("bad.rbspec", src);
    assert!(
        rendered.contains("bad.rbspec:2:9: error: unknown type `Strr`"),
        "{rendered}"
    );
    assert!(rendered.contains("  name: Strr"), "{rendered}");
    assert!(rendered.contains("^^^^"), "{rendered}");
}
