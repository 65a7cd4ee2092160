//! The parsed, span-carrying form of a `.rbspec` file.
//!
//! This AST mirrors the surface syntax (see the README format reference),
//! not the synthesis IR: names are still strings, types are still spelled
//! out, nothing has been resolved. [`crate::lower()`] turns it into an
//! [`rbsyn_interp::InterpEnv`] + [`rbsyn_core::SynthesisProblem`] pair.

use crate::span::Span;

/// A whole `.rbspec` file.
#[derive(Clone, PartialEq, Debug)]
pub struct SpecFile {
    /// Optional `benchmark do … end` metadata block.
    pub meta: Option<Meta>,
    /// Environment declarations (models, globals, annotated methods), in
    /// declaration order — the order fixes `ClassId` assignment, so it is
    /// semantically meaningful.
    pub decls: Vec<Decl>,
    /// `options do … end` entries, in order.
    pub options: Vec<OptionEntry>,
    /// The (single) `define … do … end` block.
    pub define: Define,
}

/// `benchmark do … end`: registry metadata for corpus files.
#[derive(Clone, PartialEq, Debug)]
pub struct Meta {
    /// Table-1 id (`"S3"`, `"A7"`, …).
    pub id: Option<(String, Span)>,
    /// Group constant (`Synthetic`, `Discourse`, `Gitlab`, `Diaspora`).
    pub group: Option<(String, Span)>,
    /// Human-readable benchmark name.
    pub name: Option<(String, Span)>,
    /// Paths through the original, human-written method (paper metadata;
    /// not derivable from the file).
    pub orig_paths: Option<(usize, Span)>,
    /// The whole block.
    pub span: Span,
}

/// One environment declaration.
#[derive(Clone, PartialEq, Debug)]
pub enum Decl {
    /// `model Name [without_writers] do field: Ty … end`
    Model(ModelDecl),
    /// `global Name do field: Ty … end`
    Global(GlobalDecl),
    /// `def [instance] Owner.name(params) -> Ty [reads(…)] [writes(…)]
    /// [hidden] do … end`
    Def(MethodDef),
}

/// An ActiveRecord-style model declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct ModelDecl {
    /// Class name.
    pub name: String,
    /// Span of the name.
    pub name_span: Span,
    /// `false` when declared `without_writers` (the paper's A9 library
    /// adjustment, §5.2).
    pub writers: bool,
    /// Columns.
    pub fields: Vec<FieldDecl>,
}

/// An app-global singleton declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct GlobalDecl {
    /// Class name.
    pub name: String,
    /// Span of the name.
    pub name_span: Span,
    /// Fields (each becomes a singleton reader/writer pair with region
    /// effects).
    pub fields: Vec<FieldDecl>,
}

/// `name: Ty` inside a model/global block.
#[derive(Clone, PartialEq, Debug)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Span of the name.
    pub name_span: Span,
    /// Declared type.
    pub ty: TypeExpr,
}

/// An annotated library-method definition: signature, read/write effect
/// paths, and an expression body the interpreter evaluates.
#[derive(Clone, PartialEq, Debug)]
pub struct MethodDef {
    /// Owning class name.
    pub owner: String,
    /// Span of the owner name.
    pub owner_span: Span,
    /// `true` for instance methods (`def instance …`), `false` for
    /// singleton (class-level) methods.
    pub instance: bool,
    /// Method name (may end in `?`/`!`).
    pub name: String,
    /// Span of the method name.
    pub name_span: Span,
    /// Typed parameters.
    pub params: Vec<ParamDecl>,
    /// Return type.
    pub ret: TypeExpr,
    /// Read effect paths (`reads(User.name, …)`); empty = pure reads.
    pub reads: Vec<EffPath>,
    /// Write effect paths.
    pub writes: Vec<EffPath>,
    /// `hidden` methods are callable from specs but never offered to the
    /// search ([`rbsyn_ty::EnumerateAt::Never`]).
    pub hidden: bool,
    /// Body statements; the last must be an expression (the return value).
    pub body: Vec<Stmt>,
    /// The whole definition.
    pub span: Span,
}

/// A typed parameter `name: Ty`.
#[derive(Clone, PartialEq, Debug)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Span of the name.
    pub name_span: Span,
    /// Declared type.
    pub ty: TypeExpr,
}

/// One effect path: `*`, `Class.*`, `Class.region`, `self.*` or
/// `self.region`.
#[derive(Clone, PartialEq, Debug)]
pub struct EffPath {
    /// Class name; `None` means `self` (or, with `region: None` and
    /// `bare_star`, the global `*`).
    pub class: Option<String>,
    /// Region name; `None` means `.*`.
    pub region: Option<String>,
    /// `true` for the bare `*` path.
    pub bare_star: bool,
    /// Source span of the whole path.
    pub span: Span,
}

/// One `key: value` entry of `options do … end`.
#[derive(Clone, PartialEq, Debug)]
pub struct OptionEntry {
    /// Option key (`max_size`, `timeout_secs`, …).
    pub key: String,
    /// Span of the key.
    pub key_span: Span,
    /// The value (every option takes an integer).
    pub value: i64,
    /// Span of the value.
    pub value_span: Span,
}

/// The `define name(params) -> Ty do … end` block.
#[derive(Clone, PartialEq, Debug)]
pub struct Define {
    /// Name of the method to synthesize.
    pub name: String,
    /// Span of the name.
    pub name_span: Span,
    /// Typed parameters.
    pub params: Vec<ParamDecl>,
    /// Return type.
    pub ret: TypeExpr,
    /// The constant set `Σ`, in order.
    pub consts: Vec<ConstItem>,
    /// The specs, in order.
    pub specs: Vec<SpecBlock>,
    /// The whole block.
    pub span: Span,
}

/// One item of the `consts …` list.
#[derive(Clone, PartialEq, Debug)]
pub struct ConstItem {
    /// What the item is.
    pub kind: ConstKind,
    /// Source span.
    pub span: Span,
}

/// The kinds of `Σ` entries.
#[derive(Clone, PartialEq, Debug)]
pub enum ConstKind {
    /// `base` — the paper's base constant set (`true`, `false`, `0`, `1`,
    /// `""`; §5.1).
    Base,
    /// A literal value.
    Lit(Lit),
    /// A class constant (`User`).
    Class(String),
}

/// `spec "title" do … end`.
#[derive(Clone, PartialEq, Debug)]
pub struct SpecBlock {
    /// Spec title.
    pub title: String,
    /// Span of the title string.
    pub title_span: Span,
    /// Setup statements and assertions, in order.
    pub stmts: Vec<Stmt>,
    /// The whole block.
    pub span: Span,
}

/// A statement inside a spec (or a `def` body).
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `x = expr` — a setup binding.
    Bind {
        /// Bound name.
        name: String,
        /// Span of the name.
        name_span: Span,
        /// Bound expression.
        value: ExprNode,
    },
    /// `[x =] target(args…)` — the call to the method under synthesis.
    Target {
        /// Variable receiving the result (`updated` when unbound).
        bind: String,
        /// Argument expressions.
        args: Vec<ExprNode>,
        /// Span of the whole statement.
        span: Span,
    },
    /// A bare expression evaluated for effect.
    Exec(ExprNode),
    /// `assert expr` — one postcondition assertion.
    Assert(ExprNode, Span),
}

/// A literal value.
#[derive(Clone, PartialEq, Debug)]
pub enum Lit {
    /// `nil`
    Nil,
    /// `true` / `false`
    Bool(bool),
    /// Integer.
    Int(i64),
    /// String.
    Str(String),
    /// Symbol `:name`.
    Sym(String),
}

/// A spanned expression.
#[derive(Clone, PartialEq, Debug)]
pub struct ExprNode {
    /// The expression.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

/// Surface expressions (a strict subset of λ_syn: no holes, no `let`/`if`
/// — specs are straight-line setup plus assertions).
#[derive(Clone, PartialEq, Debug)]
pub enum ExprKind {
    /// Literal.
    Lit(Lit),
    /// Variable reference (lowercase identifier).
    Var(String),
    /// Class constant used as a value (`User`).
    ClassRef(String),
    /// Method call `recv.m(args…)`; writer sugar `recv.f = e` parses as
    /// `recv.f=(e)` and index sugar `recv[k]` as `recv.[](k)`.
    Call {
        /// Receiver.
        recv: Box<ExprNode>,
        /// Method name.
        meth: String,
        /// Arguments.
        args: Vec<ExprNode>,
    },
    /// Hash literal `{k: e, …}` (symbol keys).
    HashLit(Vec<(String, Span, ExprNode)>),
    /// `!e`
    Not(Box<ExprNode>),
    /// `a || b`
    Or(Box<ExprNode>, Box<ExprNode>),
}

/// A spanned type expression.
#[derive(Clone, PartialEq, Debug)]
pub struct TypeExpr {
    /// The type.
    pub kind: TypeKind,
    /// Source span.
    pub span: Span,
}

/// Surface types.
#[derive(Clone, PartialEq, Debug)]
pub enum TypeKind {
    /// A named type: `Str`, `Int`, `Bool`, `Nil`, `Sym`, `Obj`, or a class
    /// name (instance type).
    Named(String),
    /// `Class<Name>` — the singleton class type.
    ClassOf(String, Span),
    /// `Array<Ty>`.
    ArrayOf(Box<TypeExpr>),
    /// Finite hash type `{k: Ty, j: ?Ty, …}` (`?` marks optional keys).
    Hash(Vec<HashFieldT>),
    /// Union `Ty or Ty`.
    Union(Vec<TypeExpr>),
}

/// One field of a finite hash type.
#[derive(Clone, PartialEq, Debug)]
pub struct HashFieldT {
    /// Key name.
    pub key: String,
    /// Span of the key.
    pub key_span: Span,
    /// `true` when written `?Ty`.
    pub optional: bool,
    /// Value type.
    pub ty: TypeExpr,
}
