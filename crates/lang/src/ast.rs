//! Expressions and programs of λ_syn (Fig. 3).
//!
//! Expressions carry the two kinds of synthesis holes — typed holes `□:τ`
//! and effect holes `◇:ε` — directly in the AST, exactly as in the paper's
//! rewriting semantics: synthesis proceeds by replacing the leftmost hole
//! with candidate terms until an expression is *evaluable* (hole-free,
//! Fig. 12).

use crate::effects::EffectSet;
use crate::intern::Symbol;
use crate::types::Ty;
use crate::value::Value;
use std::fmt;

/// A λ_syn expression.
///
/// `Expr` is structurally hashable, so expressions can key hash tables;
/// two expressions are equal exactly when their ASTs are.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A literal value: `nil`, `true`, `false`, integers, strings, symbols,
    /// and class constants (`Post`). Object literals `[A]` only arise at
    /// runtime and never appear in synthesized code.
    Lit(Value),
    /// Variable reference `x` (method parameters, `let`-bound temporaries,
    /// spec-setup bindings).
    Var(Symbol),
    /// Statement sequence `e₁; e₂; …` (n-ary for convenience; the paper's
    /// binary `e;e` is the two-element case).
    Seq(Vec<Expr>),
    /// Method call `e.m(e…)`.
    Call {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        meth: Symbol,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Conditional `if b then e₁ else e₂`.
    If {
        /// Guard `b` (an expression, possibly under [`Expr::Not`] /
        /// [`Expr::Or`], per the guard grammar of Fig. 3).
        cond: Box<Expr>,
        /// Then branch.
        then: Box<Expr>,
        /// Else branch (`nil` when synthesised without one).
        els: Box<Expr>,
    },
    /// `let x = e₁ in e₂`. Rendered as `x = e₁; e₂` in Ruby style.
    Let {
        /// Bound variable.
        var: Symbol,
        /// Bound expression.
        val: Box<Expr>,
        /// Body in which `var` is visible.
        body: Box<Expr>,
    },
    /// Hash literal `{k₁: e₁, …}` (symbol keys only, as synthesized code
    /// only builds keyword-argument-style hashes).
    HashLit(Vec<(Symbol, Expr)>),
    /// Guard negation `!b`.
    Not(Box<Expr>),
    /// Guard disjunction `b₁ ∨ b₂` (Ruby `||`).
    Or(Box<Expr>, Box<Expr>),
    /// Typed hole `□:τ` — must be filled by an expression of type ≤ τ.
    Hole(Ty),
    /// Effect hole `◇:ε` — must be filled by an expression whose *write*
    /// effect subsumes ε (or deleted via S-EffNil).
    EffHole(EffectSet),
}

impl Expr {
    /// `nil` literal.
    pub fn nil() -> Expr {
        Expr::Lit(Value::Nil)
    }

    /// Does the expression contain any hole? The paper's `evaluable`
    /// predicate (Fig. 12) is the negation of this.
    pub fn has_holes(&self) -> bool {
        match self {
            Expr::Hole(_) | Expr::EffHole(_) => true,
            Expr::Lit(_) | Expr::Var(_) => false,
            Expr::Seq(es) => es.iter().any(Expr::has_holes),
            Expr::Call { recv, args, .. } => recv.has_holes() || args.iter().any(Expr::has_holes),
            Expr::If { cond, then, els } => cond.has_holes() || then.has_holes() || els.has_holes(),
            Expr::Let { val, body, .. } => val.has_holes() || body.has_holes(),
            Expr::HashLit(entries) => entries.iter().any(|(_, e)| e.has_holes()),
            Expr::Not(b) => b.has_holes(),
            Expr::Or(a, b) => a.has_holes() || b.has_holes(),
        }
    }

    /// `evaluable e` (Fig. 12): true when the expression is hole-free.
    pub fn evaluable(&self) -> bool {
        !self.has_holes()
    }

    /// Number of holes (typed + effect) in the expression.
    pub fn hole_count(&self) -> usize {
        match self {
            Expr::Hole(_) | Expr::EffHole(_) => 1,
            Expr::Lit(_) | Expr::Var(_) => 0,
            Expr::Seq(es) => es.iter().map(Expr::hole_count).sum(),
            Expr::Call { recv, args, .. } => {
                recv.hole_count() + args.iter().map(Expr::hole_count).sum::<usize>()
            }
            Expr::If { cond, then, els } => {
                cond.hole_count() + then.hole_count() + els.hole_count()
            }
            Expr::Let { val, body, .. } => val.hole_count() + body.hole_count(),
            Expr::HashLit(entries) => entries.iter().map(|(_, e)| e.hole_count()).sum(),
            Expr::Not(b) => b.hole_count(),
            Expr::Or(a, b) => a.hole_count() + b.hole_count(),
        }
    }

    /// Collects every `let`/`Var` temporary name of the form `tN`, so the
    /// effect-guided wrap (S-Eff) can pick a fresh one.
    pub fn fresh_temp(&self) -> Symbol {
        fn max_temp(e: &Expr, cur: &mut i64) {
            let mut check = |s: Symbol| {
                let name = s.as_str();
                if let Some(rest) = name.strip_prefix('t') {
                    if let Ok(n) = rest.parse::<i64>() {
                        *cur = (*cur).max(n);
                    }
                }
            };
            match e {
                Expr::Var(s) => check(*s),
                Expr::Let { var, val, body } => {
                    check(*var);
                    max_temp(val, cur);
                    max_temp(body, cur);
                }
                Expr::Seq(es) => es.iter().for_each(|e| max_temp(e, cur)),
                Expr::Call { recv, args, .. } => {
                    max_temp(recv, cur);
                    args.iter().for_each(|e| max_temp(e, cur));
                }
                Expr::If { cond, then, els } => {
                    max_temp(cond, cur);
                    max_temp(then, cur);
                    max_temp(els, cur);
                }
                Expr::HashLit(entries) => entries.iter().for_each(|(_, e)| max_temp(e, cur)),
                Expr::Not(b) => max_temp(b, cur),
                Expr::Or(a, b) => {
                    max_temp(a, cur);
                    max_temp(b, cur);
                }
                Expr::Lit(_) | Expr::Hole(_) | Expr::EffHole(_) => {}
            }
        }
        let mut cur = -1;
        max_temp(self, &mut cur);
        temp_symbol((cur + 1) as usize)
    }

    /// Single-line rendering used as a canonical deduplication key and in
    /// search traces.
    pub fn compact(&self) -> String {
        let mut s = String::new();
        self.write_compact(&mut s);
        s
    }

    fn write_compact(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Expr::Lit(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Var(x) => out.push_str(x.as_str()),
            Expr::Seq(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        out.push_str("; ");
                    }
                    e.write_compact(out);
                }
            }
            Expr::Call { recv, meth, args } => {
                let name = meth.as_str();
                // Binary operators and index access render infix, as Ruby
                // would write them.
                if args.len() == 1 && is_operator(name) {
                    recv.write_compact(out);
                    if name == "[]" {
                        out.push('[');
                        args[0].write_compact(out);
                        out.push(']');
                    } else {
                        let _ = write!(out, " {name} ");
                        args[0].write_compact(out);
                    }
                    return;
                }
                recv.write_compact(out);
                let _ = write!(out, ".{meth}");
                if !args.is_empty() {
                    out.push('(');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        a.write_compact(out);
                    }
                    out.push(')');
                }
            }
            Expr::If { cond, then, els } => {
                out.push_str("if ");
                cond.write_compact(out);
                out.push_str(" then ");
                then.write_compact(out);
                out.push_str(" else ");
                els.write_compact(out);
                out.push_str(" end");
            }
            Expr::Let { var, val, body } => {
                let _ = write!(out, "{var} = ");
                val.write_compact(out);
                out.push_str("; ");
                body.write_compact(out);
            }
            Expr::HashLit(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{k}: ");
                    v.write_compact(out);
                }
                out.push('}');
            }
            Expr::Not(b) => {
                out.push('!');
                let needs_parens = matches!(**b, Expr::Or(..));
                if needs_parens {
                    out.push('(');
                }
                b.write_compact(out);
                if needs_parens {
                    out.push(')');
                }
            }
            Expr::Or(a, b) => {
                a.write_compact(out);
                out.push_str(" || ");
                b.write_compact(out);
            }
            Expr::Hole(t) => {
                let _ = write!(out, "(□:{t})");
            }
            Expr::EffHole(e) => {
                let _ = write!(out, "(◇:{e})");
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Expr::Seq(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        out.push('\n');
                    }
                    e.write_pretty(out, indent);
                }
            }
            Expr::Let { var, val, body } => {
                out.push_str(&pad);
                out.push_str(var.as_str());
                out.push_str(" = ");
                out.push_str(&val.compact());
                out.push('\n');
                body.write_pretty(out, indent);
            }
            Expr::If { cond, then, els } => {
                out.push_str(&pad);
                out.push_str("if ");
                out.push_str(&cond.compact());
                out.push('\n');
                then.write_pretty(out, indent + 1);
                out.push('\n');
                out.push_str(&pad);
                out.push_str("else\n");
                els.write_pretty(out, indent + 1);
                out.push('\n');
                out.push_str(&pad);
                out.push_str("end");
            }
            other => {
                out.push_str(&pad);
                out.push_str(&other.compact());
            }
        }
    }
}

impl fmt::Display for Expr {
    /// Multi-line Ruby-style rendering (sequences and conditionals get their
    /// own lines); use [`Expr::compact`] for the one-line canonical form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        f.write_str(&s)
    }
}

/// Returns the symbol `tN`, serving low indices from a pre-interned pool.
///
/// `fresh_temp` runs once per S-Eff wrap in the expansion loop; without the
/// pool each call re-formats and re-interns a name from a tiny fixed set
/// (tens of millions of symbol-table probes per suite run).
fn temp_symbol(n: usize) -> Symbol {
    const POOL: usize = 32;
    static TEMPS: std::sync::OnceLock<[Symbol; POOL]> = std::sync::OnceLock::new();
    let pool = TEMPS.get_or_init(|| std::array::from_fn(|i| Symbol::intern(&format!("t{i}"))));
    match pool.get(n) {
        Some(s) => *s,
        None => Symbol::intern(&format!("t{n}")),
    }
}

/// Is this method name rendered infix by the pretty printer?
fn is_operator(name: &str) -> bool {
    matches!(
        name,
        "==" | "!=" | "+" | "-" | "*" | "/" | "%" | "<" | ">" | "<=" | ">=" | "[]" | "&" | "|"
    )
}

/// A synthesized program `def m(x…) = e` (Fig. 3; multiple parameters as in
/// the implementation).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Program {
    /// Method name.
    pub name: Symbol,
    /// Parameter names, bound in `body`.
    pub params: Vec<Symbol>,
    /// Method body.
    pub body: Expr,
}

impl Program {
    /// Builds a program from a name, parameter names and a body.
    pub fn new<'a>(
        name: impl Into<Symbol>,
        params: impl IntoIterator<Item = &'a str>,
        body: Expr,
    ) -> Program {
        Program {
            name: name.into(),
            params: params.into_iter().map(Symbol::intern).collect(),
            body,
        }
    }

    /// Builds a program from already-interned parts. This is the hot-path
    /// constructor: the oracle wraps every candidate body in a `Program`,
    /// and re-interning the method and parameter names per candidate
    /// (hundreds of thousands of times per problem) is pure symbol-table
    /// traffic — callers intern once and clone the `Symbol`s.
    pub fn from_parts(name: Symbol, params: Vec<Symbol>, body: Expr) -> Program {
        Program { name, params, body }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params: Vec<&str> = self.params.iter().map(|p| p.as_str()).collect();
        writeln!(f, "def {}({})", self.name, params.join(", "))?;
        let mut s = String::new();
        self.body.write_pretty(&mut s, 1);
        writeln!(f, "{s}")?;
        write!(f, "end")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn holes_are_detected() {
        let e = call(hole(Ty::Obj), "first", []);
        assert!(e.has_holes());
        assert!(!e.evaluable());
        assert_eq!(e.hole_count(), 1);
        let done = call(var("x"), "first", []);
        assert!(done.evaluable());
    }

    #[test]
    fn hole_count_is_recursive() {
        let e = seq([
            hole(Ty::Int),
            call(
                hole(Ty::Str),
                "m",
                [hole(Ty::Bool), effhole(EffectSet::star())],
            ),
        ]);
        assert_eq!(e.hole_count(), 4);
    }

    #[test]
    fn fresh_temps_increment() {
        let e = let_("t0", int(1), var("t0"));
        assert_eq!(e.fresh_temp().as_str(), "t1");
        assert_eq!(int(5).fresh_temp().as_str(), "t0");
        let nested = let_("t0", int(1), let_("t3", int(2), var("t3")));
        assert_eq!(nested.fresh_temp().as_str(), "t4");
    }

    #[test]
    fn compact_rendering() {
        let e = call(
            call(var("Post_cls"), "where", [hash([("slug", var("arg1"))])]),
            "first",
            [],
        );
        assert_eq!(e.compact(), "Post_cls.where({slug: arg1}).first");
    }

    #[test]
    fn compact_guards() {
        let e = not(or(var("a"), var("b")));
        assert_eq!(e.compact(), "!(a || b)");
        let f = or(not(var("a")), var("b"));
        assert_eq!(f.compact(), "!a || b");
    }

    #[test]
    fn pretty_if_rendering() {
        let e = if_(var("b"), int(1), int(0));
        assert_eq!(e.to_string(), "if b\n  1\nelse\n  0\nend");
    }

    #[test]
    fn pretty_let_and_seq() {
        let e = let_("t0", int(1), seq([call(var("t0"), "bump", []), var("t0")]));
        assert_eq!(e.to_string(), "t0 = 1\nt0.bump\nt0");
    }

    #[test]
    fn program_display() {
        let p = Program::new("m", ["a", "b"], var("a"));
        assert_eq!(p.to_string(), "def m(a, b)\n  a\nend");
    }

    #[test]
    fn structural_equality() {
        assert_eq!(int(1), int(1));
        assert_ne!(var("x"), var("y"));
        assert_eq!(call(var("x"), "m", [int(1)]), call(var("x"), "m", [int(1)]));
    }

    #[test]
    fn hole_display_forms() {
        assert_eq!(hole(Ty::Int).compact(), "(□:Int)");
        assert_eq!(effhole(EffectSet::pure_()).compact(), "(◇:•)");
    }
}
