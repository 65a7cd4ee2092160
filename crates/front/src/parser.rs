//! Recursive-descent parser for `.rbspec` files.
//!
//! The grammar (see the README format reference) is newline-insensitive:
//! blocks are delimited by `do … end`, lists by commas (optional between
//! block entries), and statements are self-delimiting — every statement
//! starts with `assert`, a binding `x =`, or an expression head, none of
//! which can continue the previous statement.

use crate::ast::*;
use crate::lexer::{lex, Tok, Token};
use crate::span::{Diagnostic, Span};

/// Parses a whole `.rbspec` source string.
///
/// # Errors
///
/// Returns the first lexical or syntactic error as a span-carrying
/// [`Diagnostic`].
pub fn parse(source: &str) -> Result<SpecFile, Diagnostic> {
    let toks = lex(source)?;
    Parser { toks, pos: 0 }.file()
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, Diagnostic> {
        Err(Diagnostic::new(msg, self.span()))
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<Span, Diagnostic> {
        if self.peek() == want {
            Ok(self.bump().span)
        } else {
            self.err(format!(
                "expected {} {what}, found {}",
                want.describe(),
                self.peek().describe()
            ))
        }
    }

    /// Consumes a keyword (an `Ident` with fixed text).
    fn keyword(&mut self, kw: &str) -> Result<Span, Diagnostic> {
        match self.peek() {
            Tok::Ident(s) if s == kw => Ok(self.bump().span),
            other => self.err(format!("expected `{kw}`, found {}", other.describe())),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span), Diagnostic> {
        match self.peek().clone() {
            Tok::Ident(s) => Ok((s, self.bump().span)),
            other => self.err(format!("expected {what}, found {}", other.describe())),
        }
    }

    fn constant(&mut self, what: &str) -> Result<(String, Span), Diagnostic> {
        match self.peek().clone() {
            Tok::Const(s) => Ok((s, self.bump().span)),
            other => self.err(format!(
                "expected {what} (a capitalized name), found {}",
                other.describe()
            )),
        }
    }

    fn string(&mut self, what: &str) -> Result<(String, Span), Diagnostic> {
        match self.peek().clone() {
            Tok::Str(s) => Ok((s, self.bump().span)),
            other => self.err(format!(
                "expected a {what} string, found {}",
                other.describe()
            )),
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    // ── file structure ──────────────────────────────────────────────────

    fn file(&mut self) -> Result<SpecFile, Diagnostic> {
        let mut meta = None;
        let mut decls = Vec::new();
        let mut options = Vec::new();
        let mut define = None;
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(kw) => match kw.as_str() {
                    "benchmark" => {
                        if meta.is_some() {
                            return self.err("duplicate `benchmark` block");
                        }
                        meta = Some(self.benchmark_block()?);
                    }
                    "model" => decls.push(Decl::Model(self.model_decl()?)),
                    "global" => decls.push(Decl::Global(self.global_decl()?)),
                    "def" => decls.push(Decl::Def(self.method_def()?)),
                    "options" => {
                        if !options.is_empty() {
                            return self.err("duplicate `options` block");
                        }
                        options = self.options_block()?;
                    }
                    "define" => {
                        if define.is_some() {
                            return self
                                .err("duplicate `define` block (one synthesis problem per file)");
                        }
                        define = Some(self.define_block()?);
                    }
                    other => {
                        return self.err(format!(
                            "expected a top-level item (`benchmark`, `model`, `global`, `def`, \
                             `options` or `define`), found `{other}`"
                        ))
                    }
                },
                other => {
                    return self.err(format!(
                        "expected a top-level item, found {}",
                        other.describe()
                    ))
                }
            }
        }
        let Some(define) = define else {
            return Err(Diagnostic::new(
                "file has no `define` block (nothing to synthesize)",
                self.span(),
            ));
        };
        Ok(SpecFile {
            meta,
            decls,
            options,
            define,
        })
    }

    fn benchmark_block(&mut self) -> Result<Meta, Diagnostic> {
        let start = self.keyword("benchmark")?;
        self.keyword("do")?;
        let mut meta = Meta {
            id: None,
            group: None,
            name: None,
            orig_paths: None,
            span: start,
        };
        while !self.at_keyword("end") {
            let (key, key_span) = self.ident("a metadata key")?;
            self.expect(&Tok::Colon, "after the metadata key")?;
            match key.as_str() {
                "id" => meta.id = Some(self.string("benchmark id")?),
                "name" => meta.name = Some(self.string("benchmark name")?),
                "group" => {
                    let (g, s) = self.constant("a group")?;
                    meta.group = Some((g, s));
                }
                "orig_paths" => match self.peek().clone() {
                    Tok::Int(n) if n >= 0 => {
                        let s = self.bump().span;
                        meta.orig_paths = Some((n as usize, s));
                    }
                    other => {
                        return self.err(format!(
                            "orig_paths takes a non-negative integer, found {}",
                            other.describe()
                        ))
                    }
                },
                other => {
                    return Err(Diagnostic::new(
                        format!(
                            "unknown benchmark key `{other}` \
                             (known: id, group, name, orig_paths)"
                        ),
                        key_span,
                    ))
                }
            }
            self.eat(&Tok::Comma);
        }
        let end = self.keyword("end")?;
        meta.span = start.to(end);
        Ok(meta)
    }

    fn field_list(&mut self) -> Result<Vec<FieldDecl>, Diagnostic> {
        let mut fields = Vec::new();
        while !self.at_keyword("end") {
            let (name, name_span) = self.ident("a field name")?;
            self.expect(&Tok::Colon, "after the field name")?;
            let ty = self.type_expr()?;
            fields.push(FieldDecl {
                name,
                name_span,
                ty,
            });
            self.eat(&Tok::Comma);
        }
        self.keyword("end")?;
        Ok(fields)
    }

    fn model_decl(&mut self) -> Result<ModelDecl, Diagnostic> {
        self.keyword("model")?;
        let (name, name_span) = self.constant("a model name")?;
        let writers = !self.at_keyword("without_writers");
        if !writers {
            self.bump();
        }
        self.keyword("do")?;
        let fields = self.field_list()?;
        Ok(ModelDecl {
            name,
            name_span,
            writers,
            fields,
        })
    }

    fn global_decl(&mut self) -> Result<GlobalDecl, Diagnostic> {
        self.keyword("global")?;
        let (name, name_span) = self.constant("a global class name")?;
        self.keyword("do")?;
        let fields = self.field_list()?;
        Ok(GlobalDecl {
            name,
            name_span,
            fields,
        })
    }

    fn method_def(&mut self) -> Result<MethodDef, Diagnostic> {
        let start = self.keyword("def")?;
        let instance = self.at_keyword("instance");
        if instance {
            self.bump();
        }
        let (owner, owner_span) = self.constant("the owning class")?;
        self.expect(&Tok::Dot, "between the class and the method name")?;
        let (name, name_span) = self.ident("a method name")?;
        let params = self.param_list()?;
        self.expect(&Tok::Arrow, "before the return type")?;
        let ret = self.type_expr()?;
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut hidden = false;
        loop {
            if self.at_keyword("reads") {
                self.bump();
                reads = self.eff_path_list()?;
            } else if self.at_keyword("writes") {
                self.bump();
                writes = self.eff_path_list()?;
            } else if self.at_keyword("hidden") {
                self.bump();
                hidden = true;
            } else {
                break;
            }
        }
        self.keyword("do")?;
        let mut body = Vec::new();
        while !self.at_keyword("end") {
            let stmt = self.stmt()?;
            if let Stmt::Assert(_, span) | Stmt::Target { span, .. } = &stmt {
                return Err(Diagnostic::new(
                    "`assert`/`target` only make sense inside a spec, not a method body",
                    *span,
                ));
            }
            body.push(stmt);
        }
        let end = self.keyword("end")?;
        Ok(MethodDef {
            owner,
            owner_span,
            instance,
            name,
            name_span,
            params,
            ret,
            reads,
            writes,
            hidden,
            body,
            span: start.to(end),
        })
    }

    fn param_list(&mut self) -> Result<Vec<ParamDecl>, Diagnostic> {
        self.expect(&Tok::LParen, "to open the parameter list")?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let (name, name_span) = self.ident("a parameter name")?;
                self.expect(&Tok::Colon, "after the parameter name")?;
                let ty = self.type_expr()?;
                params.push(ParamDecl {
                    name,
                    name_span,
                    ty,
                });
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "between parameters")?;
                // Tolerate a trailing comma.
                if self.eat(&Tok::RParen) {
                    break;
                }
            }
        }
        Ok(params)
    }

    fn eff_path_list(&mut self) -> Result<Vec<EffPath>, Diagnostic> {
        self.expect(&Tok::LParen, "to open the effect path list")?;
        let mut paths = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                paths.push(self.eff_path()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "between effect paths")?;
                if self.eat(&Tok::RParen) {
                    break;
                }
            }
        }
        Ok(paths)
    }

    fn eff_path(&mut self) -> Result<EffPath, Diagnostic> {
        let start = self.span();
        // `*`
        if self.eat(&Tok::Star) {
            return Ok(EffPath {
                class: None,
                region: None,
                bare_star: true,
                span: start,
            });
        }
        // `self` or `Class`
        let class = if self.at_keyword("self") {
            self.bump();
            None
        } else {
            Some(
                self.constant("a class (or `self`, or `*`) in the effect path")?
                    .0,
            )
        };
        self.expect(&Tok::Dot, "in the effect path")?;
        let region = if self.eat(&Tok::Star) {
            None
        } else {
            Some(self.ident("a region name (or `*`)")?.0)
        };
        Ok(EffPath {
            class,
            region,
            bare_star: false,
            span: start.to(self.prev_span()),
        })
    }

    fn options_block(&mut self) -> Result<Vec<OptionEntry>, Diagnostic> {
        self.keyword("options")?;
        self.keyword("do")?;
        let mut entries = Vec::new();
        while !self.at_keyword("end") {
            let (key, key_span) = self.ident("an option key")?;
            self.expect(&Tok::Colon, "after the option key")?;
            let value_span = self.span();
            let value = match self.peek().clone() {
                Tok::Int(n) => {
                    self.bump();
                    n
                }
                other => {
                    return self.err(format!(
                        "expected an integer option value, found {}",
                        other.describe()
                    ))
                }
            };
            entries.push(OptionEntry {
                key,
                key_span,
                value,
                value_span,
            });
            self.eat(&Tok::Comma);
        }
        self.keyword("end")?;
        Ok(entries)
    }

    fn define_block(&mut self) -> Result<Define, Diagnostic> {
        let start = self.keyword("define")?;
        let (name, name_span) = self.ident("the method name to synthesize")?;
        let params = self.param_list()?;
        self.expect(&Tok::Arrow, "before the return type")?;
        let ret = self.type_expr()?;
        self.keyword("do")?;
        let mut consts = Vec::new();
        if self.at_keyword("consts") {
            self.bump();
            loop {
                consts.push(self.const_item()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let mut specs = Vec::new();
        while self.at_keyword("spec") {
            specs.push(self.spec_block()?);
        }
        let end = self.keyword("end")?;
        Ok(Define {
            name,
            name_span,
            params,
            ret,
            consts,
            specs,
            span: start.to(end),
        })
    }

    fn const_item(&mut self) -> Result<ConstItem, Diagnostic> {
        let span = self.span();
        let kind = match self.peek().clone() {
            Tok::Ident(w) if w == "base" => {
                self.bump();
                ConstKind::Base
            }
            Tok::Const(c) => {
                self.bump();
                ConstKind::Class(c)
            }
            _ => ConstKind::Lit(self.literal("a Σ constant")?),
        };
        Ok(ConstItem { kind, span })
    }

    fn literal(&mut self, what: &str) -> Result<Lit, Diagnostic> {
        let lit = match self.peek().clone() {
            Tok::Int(n) => Lit::Int(n),
            Tok::Str(s) => Lit::Str(s),
            Tok::Sym(s) => Lit::Sym(s),
            Tok::Ident(w) if w == "nil" => Lit::Nil,
            Tok::Ident(w) if w == "true" => Lit::Bool(true),
            Tok::Ident(w) if w == "false" => Lit::Bool(false),
            other => {
                return self.err(format!("expected {what}, found {}", other.describe()));
            }
        };
        self.bump();
        Ok(lit)
    }

    fn spec_block(&mut self) -> Result<SpecBlock, Diagnostic> {
        let start = self.keyword("spec")?;
        let (title, title_span) = self.string("spec title")?;
        self.keyword("do")?;
        let mut stmts = Vec::new();
        while !self.at_keyword("end") {
            stmts.push(self.stmt()?);
        }
        let end = self.keyword("end")?;
        Ok(SpecBlock {
            title,
            title_span,
            stmts,
            span: start.to(end),
        })
    }

    // ── statements ──────────────────────────────────────────────────────

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        // `assert expr`
        if self.at_keyword("assert") {
            let span = self.bump().span;
            let e = self.expr()?;
            let span = span.to(e.span);
            return Ok(Stmt::Assert(e, span));
        }
        // `target(args…)` (binds `updated` by convention)
        if self.at_keyword("target") && self.peek2() == &Tok::LParen {
            let start = self.span();
            let (args, end) = self.target_call()?;
            return Ok(Stmt::Target {
                bind: crate::RESULT_VAR.to_owned(),
                args,
                span: start.to(end),
            });
        }
        // `x = expr` or `x = target(args…)`
        if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == &Tok::Eq {
            let (name, name_span) = self.ident("a binding name")?;
            self.expect(&Tok::Eq, "in the binding")?;
            if self.at_keyword("target") && self.peek2() == &Tok::LParen {
                let (args, end) = self.target_call()?;
                return Ok(Stmt::Target {
                    bind: name,
                    args,
                    span: name_span.to(end),
                });
            }
            let value = self.expr()?;
            return Ok(Stmt::Bind {
                name,
                name_span,
                value,
            });
        }
        // Bare expression.
        Ok(Stmt::Exec(self.expr()?))
    }

    /// Parses `target(args…)` after the caller has seen the head; the
    /// target call must be the whole statement (it cannot be a
    /// subexpression — the synthesized method's result only flows through
    /// its binding).
    fn target_call(&mut self) -> Result<(Vec<ExprNode>, Span), Diagnostic> {
        self.keyword("target")?;
        self.expect(&Tok::LParen, "to open the target arguments")?;
        let mut args = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                args.push(self.expr()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "between target arguments")?;
                if self.eat(&Tok::RParen) {
                    break;
                }
            }
        }
        let end = self.prev_span();
        if self.peek() == &Tok::Dot {
            return self.err(
                "a target call cannot be part of a larger expression; \
                 bind it (`x = target(…)`) and chain on the binding",
            );
        }
        Ok((args, end))
    }

    // ── expressions ─────────────────────────────────────────────────────

    fn expr(&mut self) -> Result<ExprNode, Diagnostic> {
        // `||` — lowest precedence.
        let mut lhs = self.eq_expr()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.eq_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = ExprNode {
                kind: ExprKind::Or(Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn eq_expr(&mut self) -> Result<ExprNode, Diagnostic> {
        let mut lhs = self.unary_expr()?;
        while self.eat(&Tok::EqEq) {
            let rhs = self.unary_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = ExprNode {
                kind: ExprKind::Call {
                    recv: Box::new(lhs),
                    meth: "==".to_owned(),
                    args: vec![rhs],
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<ExprNode, Diagnostic> {
        if self.peek() == &Tok::Bang {
            let start = self.bump().span;
            let inner = self.unary_expr()?;
            let span = start.to(inner.span);
            return Ok(ExprNode {
                kind: ExprKind::Not(Box::new(inner)),
                span,
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<ExprNode, Diagnostic> {
        let mut e = self.primary_expr()?;
        loop {
            if self.eat(&Tok::Dot) {
                let (meth, meth_span) = self.ident("a method name after `.`")?;
                // Writer sugar: `recv.f = e` is the call `f=` with one
                // argument (Ruby attribute assignment).
                if self.peek() == &Tok::Eq {
                    self.bump();
                    let value = self.expr()?;
                    let span = e.span.to(value.span);
                    return Ok(ExprNode {
                        kind: ExprKind::Call {
                            recv: Box::new(e),
                            meth: format!("{meth}="),
                            args: vec![value],
                        },
                        span,
                    });
                }
                let mut args = Vec::new();
                let mut end = meth_span;
                if self.eat(&Tok::LParen) {
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&Tok::RParen) {
                                break;
                            }
                            self.expect(&Tok::Comma, "between arguments")?;
                            if self.eat(&Tok::RParen) {
                                break;
                            }
                        }
                    }
                    end = self.prev_span();
                }
                let span = e.span.to(end);
                e = ExprNode {
                    kind: ExprKind::Call {
                        recv: Box::new(e),
                        meth,
                        args,
                    },
                    span,
                };
            } else if self.peek() == &Tok::LBracket {
                // Index sugar: `recv[k]` is the call `[]` with one argument.
                self.bump();
                let key = self.expr()?;
                let end = self.expect(&Tok::RBracket, "to close the index")?;
                let span = e.span.to(end);
                e = ExprNode {
                    kind: ExprKind::Call {
                        recv: Box::new(e),
                        meth: "[]".to_owned(),
                        args: vec![key],
                    },
                    span,
                };
            } else {
                return Ok(e);
            }
        }
    }

    fn primary_expr(&mut self) -> Result<ExprNode, Diagnostic> {
        let span = self.span();
        match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, "to close the parenthesis")?;
                Ok(e)
            }
            Tok::LBrace => {
                self.bump();
                let mut entries = Vec::new();
                if !self.eat(&Tok::RBrace) {
                    loop {
                        let (key, key_span) = self.ident("a hash key")?;
                        self.expect(&Tok::Colon, "after the hash key")?;
                        let value = self.expr()?;
                        entries.push((key, key_span, value));
                        if self.eat(&Tok::RBrace) {
                            break;
                        }
                        self.expect(&Tok::Comma, "between hash entries")?;
                        if self.eat(&Tok::RBrace) {
                            break;
                        }
                    }
                }
                Ok(ExprNode {
                    kind: ExprKind::HashLit(entries),
                    span: span.to(self.prev_span()),
                })
            }
            Tok::Const(c) => {
                self.bump();
                Ok(ExprNode {
                    kind: ExprKind::ClassRef(c),
                    span,
                })
            }
            Tok::Ident(w) if w == "target" => self.err(
                "a target call cannot appear inside an expression; \
                          make it its own statement (`x = target(…)`)",
            ),
            Tok::Ident(w) if matches!(w.as_str(), "nil" | "true" | "false") => {
                let lit = self.literal("a literal")?;
                Ok(ExprNode {
                    kind: ExprKind::Lit(lit),
                    span,
                })
            }
            Tok::Ident(w) => {
                self.bump();
                Ok(ExprNode {
                    kind: ExprKind::Var(w),
                    span,
                })
            }
            Tok::Int(_) | Tok::Str(_) | Tok::Sym(_) => {
                let lit = self.literal("a literal")?;
                Ok(ExprNode {
                    kind: ExprKind::Lit(lit),
                    span,
                })
            }
            other => self.err(format!(
                "expected an expression, found {}",
                other.describe()
            )),
        }
    }

    // ── types ───────────────────────────────────────────────────────────

    fn type_expr(&mut self) -> Result<TypeExpr, Diagnostic> {
        let first = self.type_atom()?;
        if !self.at_keyword("or") {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.at_keyword("or") {
            self.bump();
            parts.push(self.type_atom()?);
        }
        let span = parts[0].span.to(parts[parts.len() - 1].span);
        Ok(TypeExpr {
            kind: TypeKind::Union(parts),
            span,
        })
    }

    fn type_atom(&mut self) -> Result<TypeExpr, Diagnostic> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Const(name) => {
                self.bump();
                match name.as_str() {
                    "Class" | "Array" if self.peek() == &Tok::Lt => {
                        self.bump();
                        if name == "Class" {
                            let (inner, inner_span) = self.constant("the class name")?;
                            let end = self.expect(&Tok::Gt, "to close `Class<…>`")?;
                            Ok(TypeExpr {
                                kind: TypeKind::ClassOf(inner, inner_span),
                                span: span.to(end),
                            })
                        } else {
                            let inner = self.type_expr()?;
                            let end = self.expect(&Tok::Gt, "to close `Array<…>`")?;
                            Ok(TypeExpr {
                                kind: TypeKind::ArrayOf(Box::new(inner)),
                                span: span.to(end),
                            })
                        }
                    }
                    _ => Ok(TypeExpr {
                        kind: TypeKind::Named(name),
                        span,
                    }),
                }
            }
            Tok::LBrace => {
                self.bump();
                let mut fields = Vec::new();
                if !self.eat(&Tok::RBrace) {
                    loop {
                        let (key, key_span) = self.ident("a hash-type key")?;
                        self.expect(&Tok::Colon, "after the hash-type key")?;
                        let optional = self.eat(&Tok::Question);
                        let ty = self.type_expr()?;
                        fields.push(HashFieldT {
                            key,
                            key_span,
                            optional,
                            ty,
                        });
                        if self.eat(&Tok::RBrace) {
                            break;
                        }
                        self.expect(&Tok::Comma, "between hash-type fields")?;
                        if self.eat(&Tok::RBrace) {
                            break;
                        }
                    }
                }
                Ok(TypeExpr {
                    kind: TypeKind::Hash(fields),
                    span: span.to(self.prev_span()),
                })
            }
            other => self.err(format!(
                "expected a type (`Str`, `Int`, `Bool`, a class name, `Class<…>`, \
                 `Array<…>` or `{{…}}`), found {}",
                other.describe()
            )),
        }
    }
}
