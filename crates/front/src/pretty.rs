//! Canonical pretty-printer: AST → `.rbspec` text.
//!
//! `parse(to_rbspec(parse(src)))` produces an AST that lowers identically
//! to `parse(src)` — the round-trip property the proptest suite checks —
//! and the printer's output style is the format's canonical style.

use crate::ast::*;

/// Renders a parsed file as canonical `.rbspec` text.
pub fn to_rbspec(file: &SpecFile) -> String {
    let mut out = String::new();
    if let Some(meta) = &file.meta {
        out.push_str("benchmark do\n");
        if let Some((id, _)) = &meta.id {
            out.push_str(&format!("  id: {}\n", str_lit(id)));
        }
        if let Some((g, _)) = &meta.group {
            out.push_str(&format!("  group: {g}\n"));
        }
        if let Some((n, _)) = &meta.name {
            out.push_str(&format!("  name: {}\n", str_lit(n)));
        }
        if let Some((p, _)) = &meta.orig_paths {
            out.push_str(&format!("  orig_paths: {p}\n"));
        }
        out.push_str("end\n\n");
    }
    for decl in &file.decls {
        match decl {
            Decl::Model(m) => {
                let modifier = if m.writers { "" } else { " without_writers" };
                out.push_str(&format!("model {}{modifier} do\n", m.name));
                for f in &m.fields {
                    out.push_str(&format!("  {}: {}\n", f.name, ty(&f.ty)));
                }
                out.push_str("end\n\n");
            }
            Decl::Global(g) => {
                out.push_str(&format!("global {} do\n", g.name));
                for f in &g.fields {
                    out.push_str(&format!("  {}: {}\n", f.name, ty(&f.ty)));
                }
                out.push_str("end\n\n");
            }
            Decl::Def(d) => {
                let kind = if d.instance { "instance " } else { "" };
                out.push_str(&format!(
                    "def {kind}{}.{}({}) -> {}",
                    d.owner,
                    d.name,
                    params(&d.params),
                    ty(&d.ret)
                ));
                if !d.reads.is_empty() {
                    out.push_str(&format!(" reads({})", eff_paths(&d.reads)));
                }
                if !d.writes.is_empty() {
                    out.push_str(&format!(" writes({})", eff_paths(&d.writes)));
                }
                if d.hidden {
                    out.push_str(" hidden");
                }
                out.push_str(" do\n");
                for s in &d.body {
                    out.push_str(&format!("  {}\n", stmt(s)));
                }
                out.push_str("end\n\n");
            }
        }
    }
    if !file.options.is_empty() {
        out.push_str("options do\n");
        for e in &file.options {
            out.push_str(&format!("  {}: {}\n", e.key, e.value));
        }
        out.push_str("end\n\n");
    }
    let d = &file.define;
    out.push_str(&format!(
        "define {}({}) -> {} do\n",
        d.name,
        params(&d.params),
        ty(&d.ret)
    ));
    if !d.consts.is_empty() {
        let items: Vec<String> = d
            .consts
            .iter()
            .map(|c| match &c.kind {
                ConstKind::Base => "base".to_owned(),
                ConstKind::Lit(l) => lit(l),
                ConstKind::Class(n) => n.clone(),
            })
            .collect();
        out.push_str(&format!("  consts {}\n", items.join(", ")));
    }
    for s in &d.specs {
        out.push_str(&format!("\n  spec {} do\n", str_lit(&s.title)));
        for st in &s.stmts {
            out.push_str(&format!("    {}\n", stmt(st)));
        }
        out.push_str("  end\n");
    }
    out.push_str("end\n");
    out
}

fn params(ps: &[ParamDecl]) -> String {
    let parts: Vec<String> = ps
        .iter()
        .map(|p| format!("{}: {}", p.name, ty(&p.ty)))
        .collect();
    parts.join(", ")
}

fn eff_paths(paths: &[EffPath]) -> String {
    let parts: Vec<String> = paths
        .iter()
        .map(|p| {
            if p.bare_star {
                "*".to_owned()
            } else {
                let class = p.class.as_deref().unwrap_or("self");
                let region = p.region.as_deref().unwrap_or("*");
                format!("{class}.{region}")
            }
        })
        .collect();
    parts.join(", ")
}

fn stmt(s: &Stmt) -> String {
    match s {
        Stmt::Bind { name, value, .. } => format!("{name} = {}", expr(value)),
        Stmt::Target { bind, args, .. } => {
            let args: Vec<String> = args.iter().map(expr).collect();
            format!("{bind} = target({})", args.join(", "))
        }
        Stmt::Exec(e) => expr(e),
        Stmt::Assert(e, _) => format!("assert {}", expr(e)),
    }
}

/// Renders an expression. Precedence mirrors the parser: `||` is loosest,
/// `==` next, `!` binds tighter, postfix tightest — operands that would
/// re-parse differently get parentheses.
fn expr(e: &ExprNode) -> String {
    match &e.kind {
        ExprKind::Lit(l) => lit(l),
        ExprKind::Var(v) => v.clone(),
        ExprKind::ClassRef(c) => c.clone(),
        ExprKind::Call { recv, meth, args } => {
            if meth == "==" && args.len() == 1 {
                return format!("{} == {}", eq_operand(recv), eq_operand(&args[0]));
            }
            if meth == "[]" && args.len() == 1 {
                return format!("{}[{}]", postfix_operand(recv), expr(&args[0]));
            }
            if let Some(attr) = meth.strip_suffix('=') {
                if args.len() == 1 && !attr.is_empty() {
                    return format!("{}.{attr} = {}", postfix_operand(recv), expr(&args[0]));
                }
            }
            let rendered: Vec<String> = args.iter().map(expr).collect();
            let argstr = if rendered.is_empty() {
                String::new()
            } else {
                format!("({})", rendered.join(", "))
            };
            format!("{}.{meth}{argstr}", postfix_operand(recv))
        }
        ExprKind::HashLit(entries) => {
            let parts: Vec<String> = entries
                .iter()
                .map(|(k, _, v)| format!("{k}: {}", expr(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
        ExprKind::Not(inner) => format!("!{}", unary_operand(inner)),
        ExprKind::Or(a, b) => format!("{} || {}", eq_operand(a), eq_operand(b)),
    }
}

/// An operand of `==` / `||`: parenthesize nested `||`, nested `==`
/// (associativity kept explicit), and writer sugar (`a.f = b` is greedy —
/// `(a.f = b) || c` re-parses correctly, `a.f = b || c` does not).
fn eq_operand(e: &ExprNode) -> String {
    match &e.kind {
        ExprKind::Or(..) => format!("({})", expr(e)),
        // Covers both `==` and writer methods (`f=`).
        ExprKind::Call { meth, args, .. } if args.len() == 1 && meth.ends_with('=') => {
            format!("({})", expr(e))
        }
        _ => expr(e),
    }
}

/// An operand of `!` — same parenthesization rules as [`eq_operand`].
fn unary_operand(e: &ExprNode) -> String {
    eq_operand(e)
}

/// A receiver of `.m(…)` / `[…]`.
fn postfix_operand(e: &ExprNode) -> String {
    match &e.kind {
        ExprKind::Or(..) | ExprKind::Not(..) => format!("({})", expr(e)),
        ExprKind::Call { meth, args, .. } if meth == "==" && args.len() == 1 => {
            format!("({})", expr(e))
        }
        ExprKind::Call { meth, .. } if meth.ends_with('=') && meth != "==" => {
            format!("({})", expr(e))
        }
        _ => expr(e),
    }
}

fn lit(l: &Lit) -> String {
    match l {
        Lit::Nil => "nil".to_owned(),
        Lit::Bool(b) => b.to_string(),
        Lit::Int(i) => i.to_string(),
        Lit::Str(s) => str_lit(s),
        Lit::Sym(s) => format!(":{s}"),
    }
}

fn str_lit(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

fn ty(t: &TypeExpr) -> String {
    match &t.kind {
        TypeKind::Named(n) => n.clone(),
        TypeKind::ClassOf(n, _) => format!("Class<{n}>"),
        TypeKind::ArrayOf(inner) => format!("Array<{}>", ty(inner)),
        TypeKind::Hash(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{}: {}{}",
                        f.key,
                        if f.optional { "?" } else { "" },
                        ty(&f.ty)
                    )
                })
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
        TypeKind::Union(parts) => {
            let rendered: Vec<String> = parts.iter().map(ty).collect();
            rendered.join(" or ")
        }
    }
}
