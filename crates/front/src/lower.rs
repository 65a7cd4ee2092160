//! Lowering: parsed [`SpecFile`] → interpreter environment + synthesis
//! problem + options.
//!
//! Lowering is deterministic and re-runnable: class ids are assigned by
//! declaration order on a fresh [`EnvBuilder::with_stdlib`], so lowering
//! the same file twice yields interchangeable environments (equal
//! [`ClassTable::fingerprint`](rbsyn_ty::ClassTable::fingerprint)s) — the
//! property the registry-fidelity diff gate relies on.

use crate::ast::*;
use crate::span::{Diagnostic, Span};
use rbsyn_core::{Options, SynthesisProblem};
use rbsyn_interp::eval::{Evaluator, Locals};
use rbsyn_interp::{InterpEnv, RuntimeError, SetupStep, Spec};
use rbsyn_lang::types::HashField;
use rbsyn_lang::{ClassId, Effect, EffectPair, EffectSet, Expr, FiniteHash, Symbol, Ty, Value};
use rbsyn_stdlib::EnvBuilder;
use rbsyn_ty::{EnumerateAt, MethodKind};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// A fully lowered `.rbspec` file: everything needed to run (or register)
/// one synthesis problem.
pub struct Lowered {
    /// Benchmark id from the metadata block, if any.
    pub id: Option<String>,
    /// Group name from the metadata block, if any (validated against the
    /// known groups).
    pub group: Option<String>,
    /// Display name from the metadata block, if any.
    pub display_name: Option<String>,
    /// Paths through the original method (paper metadata; defaults to 1).
    pub orig_paths: usize,
    /// The interpreter environment (stdlib + declared models/globals/defs).
    pub env: InterpEnv,
    /// The synthesis problem.
    pub problem: SynthesisProblem,
    /// Default options, with the file's `options do … end` patch applied.
    pub options: Options,
}

/// Lowers a parsed file.
///
/// # Errors
///
/// Returns the first semantic error (unknown type, unknown class, bad
/// effect path, duplicate model, malformed spec, …) as a span-carrying
/// [`Diagnostic`].
pub fn lower(file: &SpecFile) -> Result<Lowered, Diagnostic> {
    Lowerer::new().lower(file)
}

const KNOWN_GROUPS: [&str; 4] = ["Synthetic", "Discourse", "Gitlab", "Diaspora"];

struct Lowerer {
    builder: EnvBuilder,
    /// Fields of `global` classes declared in this file (no schema is
    /// registered for globals, so effect-path validation needs its own
    /// record).
    global_fields: HashMap<ClassId, HashSet<Symbol>>,
}

impl Lowerer {
    fn new() -> Lowerer {
        Lowerer {
            builder: EnvBuilder::with_stdlib(),
            global_fields: HashMap::new(),
        }
    }

    fn lower(mut self, file: &SpecFile) -> Result<Lowered, Diagnostic> {
        if let Some(meta) = &file.meta {
            if let Some((g, span)) = &meta.group {
                if !KNOWN_GROUPS.contains(&g.as_str()) {
                    return Err(Diagnostic::new(
                        format!("unknown group `{g}` (known: {})", KNOWN_GROUPS.join(", ")),
                        *span,
                    ));
                }
            }
        }
        for decl in &file.decls {
            match decl {
                Decl::Model(m) => self.lower_model(m)?,
                Decl::Global(g) => self.lower_global(g)?,
                Decl::Def(d) => self.lower_def(d)?,
            }
        }
        let options = self.lower_options(&file.options)?;
        let problem = self.lower_define(&file.define)?;
        let meta = file.meta.as_ref();
        Ok(Lowered {
            id: meta.and_then(|m| m.id.as_ref()).map(|(s, _)| s.clone()),
            group: meta.and_then(|m| m.group.as_ref()).map(|(s, _)| s.clone()),
            display_name: meta.and_then(|m| m.name.as_ref()).map(|(s, _)| s.clone()),
            orig_paths: meta.and_then(|m| m.orig_paths).map(|(n, _)| n).unwrap_or(1),
            env: self.builder.finish(),
            problem,
            options,
        })
    }

    // ── declarations ────────────────────────────────────────────────────

    fn check_fresh_class(&self, name: &str, span: Span) -> Result<(), Diagnostic> {
        if self.builder.hierarchy().find(name).is_some() {
            return Err(Diagnostic::new(
                format!("duplicate class `{name}` (already declared in this file or the stdlib)"),
                span,
            ));
        }
        Ok(())
    }

    fn lower_fields(&self, fields: &[FieldDecl]) -> Result<Vec<(String, Ty)>, Diagnostic> {
        let mut out: Vec<(String, Ty)> = Vec::with_capacity(fields.len());
        for f in fields {
            if out.iter().any(|(n, _)| n == &f.name) {
                return Err(Diagnostic::new(
                    format!("duplicate field `{}`", f.name),
                    f.name_span,
                ));
            }
            if f.name == "id" {
                return Err(Diagnostic::new(
                    "the `id` column is implicit on every model",
                    f.name_span,
                ));
            }
            out.push((f.name.clone(), self.lower_type(&f.ty)?));
        }
        Ok(out)
    }

    fn lower_model(&mut self, m: &ModelDecl) -> Result<(), Diagnostic> {
        self.check_fresh_class(&m.name, m.name_span)?;
        let fields = self.lower_fields(&m.fields)?;
        let cols: Vec<(&str, Ty)> = fields
            .iter()
            .map(|(n, t)| (n.as_str(), t.clone()))
            .collect();
        if m.writers {
            self.builder.define_model(&m.name, &cols);
        } else {
            self.builder.define_model_without_writers(&m.name, &cols);
        }
        Ok(())
    }

    fn lower_global(&mut self, g: &GlobalDecl) -> Result<(), Diagnostic> {
        self.check_fresh_class(&g.name, g.name_span)?;
        let fields = self.lower_fields(&g.fields)?;
        let cols: Vec<(&str, Ty)> = fields
            .iter()
            .map(|(n, t)| (n.as_str(), t.clone()))
            .collect();
        let class = self.builder.define_global(&g.name, &cols);
        self.global_fields.insert(
            class,
            fields.iter().map(|(n, _)| Symbol::intern(n)).collect(),
        );
        Ok(())
    }

    fn lower_def(&mut self, d: &MethodDef) -> Result<(), Diagnostic> {
        let owner = self.resolve_class(&d.owner, d.owner_span)?;
        let kind = if d.instance {
            MethodKind::Instance
        } else {
            MethodKind::Singleton
        };
        let params: Vec<Ty> = d
            .params
            .iter()
            .map(|p| self.lower_type(&p.ty))
            .collect::<Result<_, _>>()?;
        let ret = self.lower_type(&d.ret)?;
        let effect = EffectPair::new(
            self.lower_eff_paths(&d.reads)?,
            self.lower_eff_paths(&d.writes)?,
        );
        let enumerate = if d.hidden {
            EnumerateAt::Never
        } else {
            EnumerateAt::OwnerOnly
        };
        let body = self.lower_def_body(d)?;
        let param_names: Vec<Symbol> = d.params.iter().map(|p| Symbol::intern(&p.name)).collect();
        let expected_args = param_names.len();
        let meth_name = d.name.clone();
        let self_sym = Symbol::intern("self");
        self.builder.method(
            owner,
            kind,
            &d.name,
            params,
            ret,
            effect,
            enumerate,
            Arc::new(move |env, state, recv, args| {
                if args.len() != expected_args {
                    return Err(RuntimeError::Other(format!(
                        "{meth_name} expects {expected_args} argument(s), got {}",
                        args.len()
                    )));
                }
                let mut locals = Locals::new();
                locals.bind(self_sym, recv.clone());
                for (p, v) in param_names.iter().zip(args) {
                    locals.bind(*p, v.clone());
                }
                let mut ev = Evaluator::new(env, state);
                ev.eval(&mut locals, &body)
            }),
        );
        Ok(())
    }

    /// Lowers a `def` body (binds + a final expression) into a nested
    /// `let`-expression.
    fn lower_def_body(&self, d: &MethodDef) -> Result<Expr, Diagnostic> {
        let mut scope: HashSet<String> = d.params.iter().map(|p| p.name.clone()).collect();
        scope.insert("self".to_owned());
        let mut exprs: Vec<(Option<Symbol>, Expr)> = Vec::new();
        for stmt in &d.body {
            match stmt {
                Stmt::Bind { name, value, .. } => {
                    let e = self.lower_expr(value, &scope)?;
                    scope.insert(name.clone());
                    exprs.push((Some(Symbol::intern(name)), e));
                }
                Stmt::Exec(e) => exprs.push((None, self.lower_expr(e, &scope)?)),
                Stmt::Assert(_, _) | Stmt::Target { .. } => unreachable!("rejected by the parser"),
            }
        }
        let Some((last_bind, last)) = exprs.pop() else {
            return Err(Diagnostic::new(
                format!("method `{}` has an empty body", d.name),
                d.span,
            ));
        };
        if last_bind.is_some() {
            return Err(Diagnostic::new(
                format!(
                    "the last statement of `{}` must be an expression (its return value), \
                     not a binding",
                    d.name
                ),
                d.span,
            ));
        }
        let mut body = last;
        for (bind, e) in exprs.into_iter().rev() {
            body = match bind {
                Some(var) => Expr::Let {
                    var,
                    val: Box::new(e),
                    body: Box::new(body),
                },
                None => Expr::Seq(vec![e, body]),
            };
        }
        Ok(body)
    }

    fn lower_eff_paths(&self, paths: &[EffPath]) -> Result<EffectSet, Diagnostic> {
        let mut atoms = Vec::new();
        for p in paths {
            atoms.push(self.lower_eff_path(p)?);
        }
        Ok(EffectSet::from_atoms(atoms))
    }

    fn lower_eff_path(&self, p: &EffPath) -> Result<Effect, Diagnostic> {
        if p.bare_star {
            return Ok(Effect::Star);
        }
        match (&p.class, &p.region) {
            (None, None) => Ok(Effect::SelfStar),
            (None, Some(r)) => Ok(Effect::SelfRegion(Symbol::intern(r))),
            (Some(c), region) => {
                let class = self.builder.hierarchy().find(c).ok_or_else(|| {
                    Diagnostic::new(
                        format!("unknown class `{c}` in effect path (declare it first)"),
                        p.span,
                    )
                })?;
                match region {
                    None => Ok(Effect::ClassStar(class)),
                    Some(r) => {
                        let sym = Symbol::intern(r);
                        let known = match self.builder.hierarchy().schema(class) {
                            Some(schema) => schema.has_column(sym),
                            None => self
                                .global_fields
                                .get(&class)
                                .is_none_or(|fields| fields.contains(&sym)),
                        };
                        if !known {
                            return Err(Diagnostic::new(
                                format!("unknown effect path: `{c}` has no region `{r}`"),
                                p.span,
                            ));
                        }
                        Ok(Effect::Region(class, sym))
                    }
                }
            }
        }
    }

    // ── options ─────────────────────────────────────────────────────────

    fn lower_options(&self, entries: &[OptionEntry]) -> Result<Options, Diagnostic> {
        let mut o = Options::default();
        for e in entries {
            let int = |what: &str| -> Result<i64, Diagnostic> {
                match &e.value {
                    OptValue::Int(n) if *n >= 0 => Ok(*n),
                    _ => Err(Diagnostic::new(
                        format!("{what} takes a non-negative integer"),
                        e.value_span,
                    )),
                }
            };
            match e.key.as_str() {
                "max_size" => o.max_size = int("max_size")? as usize,
                "max_guard_size" => o.max_guard_size = int("max_guard_size")? as usize,
                "max_hash_keys" => o.max_hash_keys = int("max_hash_keys")? as usize,
                "max_expansions" => o.max_expansions = int("max_expansions")? as u64,
                "intra" => o.intra_parallelism = (int("intra")? as usize).max(1),
                "timeout_secs" => {
                    let secs = int("timeout_secs")?;
                    o.timeout = if secs == 0 {
                        None
                    } else {
                        Some(Duration::from_secs(secs as u64))
                    };
                }
                "cache" => match &e.value {
                    OptValue::Word(w) if w == "true" => o.cache = true,
                    OptValue::Word(w) if w == "false" => o.cache = false,
                    _ => {
                        return Err(Diagnostic::new(
                            "cache takes `true` or `false`",
                            e.value_span,
                        ))
                    }
                },
                other => {
                    return Err(Diagnostic::new(
                        format!(
                            "unknown option `{other}` (known: max_size, max_guard_size, \
                             max_hash_keys, max_expansions, timeout_secs, intra, cache)"
                        ),
                        e.key_span,
                    ))
                }
            }
        }
        Ok(o)
    }

    // ── the define block ────────────────────────────────────────────────

    fn lower_define(&self, d: &Define) -> Result<SynthesisProblem, Diagnostic> {
        let mut b = SynthesisProblem::builder(&d.name);
        let mut seen_params: HashSet<&str> = HashSet::new();
        for p in &d.params {
            if !seen_params.insert(&p.name) {
                return Err(Diagnostic::new(
                    format!("duplicate parameter `{}`", p.name),
                    p.name_span,
                ));
            }
            b = b.param(&p.name, self.lower_type(&p.ty)?);
        }
        b = b.returns(self.lower_type(&d.ret)?);
        for c in &d.consts {
            b = match &c.kind {
                ConstKind::Base => b.base_consts(),
                ConstKind::Lit(l) => b.constant(lower_lit(l)),
                ConstKind::Class(name) => {
                    b.constant(Value::Class(self.resolve_class(name, c.span)?))
                }
            };
        }
        if d.specs.is_empty() {
            return Err(Diagnostic::new(
                format!("`define {}` has no specs", d.name),
                d.span,
            ));
        }
        for s in &d.specs {
            b = b.spec(self.lower_spec(s)?);
        }
        Ok(b.build())
    }

    fn lower_spec(&self, s: &SpecBlock) -> Result<Spec, Diagnostic> {
        let mut steps: Vec<SetupStep> = Vec::new();
        let mut asserts: Vec<Expr> = Vec::new();
        let mut scope: HashSet<String> = HashSet::new();
        let mut target_seen = false;
        for stmt in &s.stmts {
            match stmt {
                Stmt::Assert(e, span) => {
                    if !target_seen {
                        return Err(Diagnostic::new(
                            "assertions must come after the target call",
                            *span,
                        ));
                    }
                    asserts.push(self.lower_expr(e, &scope)?);
                }
                Stmt::Target { bind, args, span } => {
                    if target_seen {
                        return Err(Diagnostic::new(
                            "a spec may call the target method only once",
                            *span,
                        ));
                    }
                    if !asserts.is_empty() {
                        return Err(Diagnostic::new(
                            "the target call must come before the assertions",
                            *span,
                        ));
                    }
                    let args = args
                        .iter()
                        .map(|a| self.lower_expr(a, &scope))
                        .collect::<Result<Vec<_>, _>>()?;
                    scope.insert(bind.clone());
                    steps.push(SetupStep::CallTarget {
                        bind: Symbol::intern(bind),
                        args,
                    });
                    target_seen = true;
                }
                other => {
                    if !asserts.is_empty() {
                        let span = match other {
                            Stmt::Bind { name_span, .. } => *name_span,
                            Stmt::Exec(e) => e.span,
                            _ => unreachable!("assert/target handled above"),
                        };
                        return Err(Diagnostic::new(
                            "setup steps cannot follow assertions",
                            span,
                        ));
                    }
                    match other {
                        Stmt::Bind { name, value, .. } => {
                            let e = self.lower_expr(value, &scope)?;
                            scope.insert(name.clone());
                            steps.push(SetupStep::Bind(Symbol::intern(name), e));
                        }
                        Stmt::Exec(e) => steps.push(SetupStep::Exec(self.lower_expr(e, &scope)?)),
                        _ => unreachable!("assert/target handled above"),
                    }
                }
            }
        }
        if !target_seen {
            return Err(Diagnostic::new(
                format!("spec {:?} never calls the target method", s.title),
                s.span,
            ));
        }
        Ok(Spec::new(&s.title, steps, asserts))
    }

    // ── expressions and types ───────────────────────────────────────────

    fn resolve_class(&self, name: &str, span: Span) -> Result<ClassId, Diagnostic> {
        self.builder.hierarchy().find(name).ok_or_else(|| {
            Diagnostic::new(
                format!("unknown class `{name}` (declare it with `model` or `global` first)"),
                span,
            )
        })
    }

    fn lower_expr(&self, e: &ExprNode, scope: &HashSet<String>) -> Result<Expr, Diagnostic> {
        Ok(match &e.kind {
            ExprKind::Lit(l) => Expr::Lit(lower_lit(l)),
            ExprKind::Var(name) => {
                if !scope.contains(name) {
                    return Err(Diagnostic::new(
                        format!("unknown variable `{name}` (bind it with `{name} = …` first)"),
                        e.span,
                    ));
                }
                Expr::Var(Symbol::intern(name))
            }
            ExprKind::ClassRef(name) => Expr::Lit(Value::Class(self.resolve_class(name, e.span)?)),
            ExprKind::Call { recv, meth, args } => Expr::Call {
                recv: Box::new(self.lower_expr(recv, scope)?),
                meth: Symbol::intern(meth),
                args: args
                    .iter()
                    .map(|a| self.lower_expr(a, scope))
                    .collect::<Result<_, _>>()?,
            },
            ExprKind::HashLit(entries) => Expr::HashLit(
                entries
                    .iter()
                    .map(|(k, _, v)| Ok((Symbol::intern(k), self.lower_expr(v, scope)?)))
                    .collect::<Result<_, Diagnostic>>()?,
            ),
            ExprKind::Not(inner) => Expr::Not(Box::new(self.lower_expr(inner, scope)?)),
            ExprKind::Or(a, b) => Expr::Or(
                Box::new(self.lower_expr(a, scope)?),
                Box::new(self.lower_expr(b, scope)?),
            ),
        })
    }

    fn lower_type(&self, t: &TypeExpr) -> Result<Ty, Diagnostic> {
        Ok(match &t.kind {
            TypeKind::Named(name) => match name.as_str() {
                "Str" => Ty::Str,
                "Int" => Ty::Int,
                "Bool" => Ty::Bool,
                "Nil" => Ty::Nil,
                "Sym" => Ty::Sym,
                "Obj" => Ty::Obj,
                other => Ty::Instance(self.builder.hierarchy().find(other).ok_or_else(|| {
                    Diagnostic::new(
                        format!(
                            "unknown type `{other}` (primitives are Str, Int, Bool, Nil, Sym, \
                             Obj; classes must be declared before use)"
                        ),
                        t.span,
                    )
                })?),
            },
            TypeKind::ClassOf(name, span) => Ty::SingletonClass(self.resolve_class(name, *span)?),
            TypeKind::ArrayOf(inner) => Ty::Array(Box::new(self.lower_type(inner)?)),
            TypeKind::Hash(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for f in fields {
                    if out.iter().any(|h: &HashField| h.key.as_str() == f.key) {
                        return Err(Diagnostic::new(
                            format!("duplicate hash-type key `{}`", f.key),
                            f.key_span,
                        ));
                    }
                    out.push(HashField {
                        key: Symbol::intern(&f.key),
                        ty: self.lower_type(&f.ty)?,
                        optional: f.optional,
                    });
                }
                Ty::FiniteHash(FiniteHash::new(out))
            }
            TypeKind::Union(parts) => Ty::union(
                parts
                    .iter()
                    .map(|p| self.lower_type(p))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        })
    }
}

fn lower_lit(l: &Lit) -> Value {
    match l {
        Lit::Nil => Value::Nil,
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Int(i) => Value::Int(*i),
        Lit::Str(s) => Value::str(s),
        Lit::Sym(s) => Value::sym(s),
    }
}
