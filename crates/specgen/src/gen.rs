//! Seeded generation of solvable-by-construction `.rbspec` problems.
//!
//! Every problem starts from a *hidden reference program* sampled from the
//! same λ_syn grammar the synthesizer searches (params, Σ literals, and
//! enumerable stdlib/model methods only, so the reference is expressible
//! inside the search space by construction). The generator then:
//!
//! 1. samples a model schema, optional effect-annotated helper `def`s, a
//!    target signature, and per-spec setup code (seed rows, argument
//!    literals);
//! 2. lowers a provisional file and *executes* the reference against each
//!    spec's setup world with `rbsyn-interp`;
//! 3. turns the observed results into passing assertions (result pins,
//!    `Model.count` pins, `exists?` probes) — the spec passes because it
//!    was derived from an actual run;
//! 4. pretty-prints the finished file via [`to_rbspec`], re-parses and
//!    re-lowers it (the full lexer→parser→lowering path), and re-validates
//!    the reference against the reloaded problem;
//! 5. solves the problem under its deterministic expansion budget and
//!    checks the solution is observationally equivalent to the reference
//!    ([`PreparedSpec::run_traced`] fingerprints over every spec world).
//!
//! Step 5 failing (no solution, or an observably different one) rejects
//! the attempt and the generator retries with `attempt + 1` — so every
//! emitted problem is *verified solvable*. The whole pipeline is a pure
//! function of `(seed, index, attempt)`: the vendored [`rand`] xorshift
//! generator is the only randomness source, which is what makes the
//! checked-in corpus byte-reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbsyn_core::{SynthError, Synthesizer};
use rbsyn_front::ast::{
    ConstItem, ConstKind, Decl, Define, EffPath, ExprKind, ExprNode, FieldDecl, Lit, Meta,
    MethodDef, ModelDecl, OptionEntry, ParamDecl, SpecBlock, SpecFile, Stmt, TypeExpr, TypeKind,
};
use rbsyn_front::{load_str, to_rbspec, LoadedSpec, Span};
use rbsyn_interp::eval::{Evaluator, Locals};
use rbsyn_interp::{run_spec, PreparedSpec, SetupStep, Spec, WorldState};
use rbsyn_lang::builder as lb;
use rbsyn_lang::{ClassId, Expr, Program, Symbol, Value};
use std::path::Path;

/// Default corpus seed (recorded in the manifest; any seed works).
pub const DEFAULT_SEED: u64 = 20260807;
/// Default corpus size.
pub const DEFAULT_COUNT: usize = 500;
/// Attempt cap per index before generation reports a hard error.
const MAX_ATTEMPTS: u32 = 1000;

// ── name and literal pools (all decisions draw from fixed tables) ───────

const MODEL_NAMES: [&str; 12] = [
    "Post", "User", "Order", "Item", "Account", "Ticket", "Invoice", "Review", "Message",
    "Product", "Shipment", "Tag",
];

const FIELD_POOL: [(&str, Prim); 15] = [
    ("title", Prim::Str),
    ("name", Prim::Str),
    ("state", Prim::Str),
    ("label", Prim::Str),
    ("slug", Prim::Str),
    ("body", Prim::Str),
    ("owner", Prim::Str),
    ("kind", Prim::Str),
    ("score", Prim::Int),
    ("rank", Prim::Int),
    ("qty", Prim::Int),
    ("level", Prim::Int),
    ("active", Prim::Bool),
    ("flag", Prim::Bool),
    ("done", Prim::Bool),
];

const FN_NAMES: [&str; 10] = [
    "lookup",
    "tally",
    "register",
    "describe",
    "adjust",
    "probe",
    "resolve",
    "apply_op",
    "collect_info",
    "touch",
];

const STR_LITS: [&str; 10] = [
    "alpha", "beta", "gamma", "delta", "omega", "hello", "ruby", "spec", "zap", "kilo",
];

const INT_LITS: [i64; 8] = [0, 1, 2, 3, 5, 7, 9, 42];

// ── sampled problem shape ───────────────────────────────────────────────

/// Primitive column/value types the generator deals in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Prim {
    Str,
    Int,
    Bool,
}

/// A generated type: a primitive or an instance of the n-th sampled model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GenTy {
    Prim(Prim),
    Inst(usize),
}

/// One sampled ActiveRecord-style model.
struct ModelShape {
    name: &'static str,
    fields: Vec<(&'static str, Prim)>,
}

/// Effect-annotated helper-method templates (each becomes a `def`).
enum Helper {
    /// `def M.total() -> Int reads(M.*) do M.count end`
    Total { model: usize },
    /// `def M.has_f(v: T) -> Bool reads(M.*) do M.exists?({f: v}) end`
    Has { model: usize, field: usize },
    /// `def M.add_f(v: T) -> M reads(M.*) writes(M.*) do M.create!({f: v}) end`
    Add {
        model: usize,
        field: usize,
        hidden: bool,
    },
}

/// Everything sampled *before* the reference program.
struct Shape {
    models: Vec<ModelShape>,
    helpers: Vec<Helper>,
    fname: &'static str,
    params: Vec<GenTy>,
    ret: GenTy,
}

/// A literal value drawn from the pools.
#[derive(Clone, Copy)]
enum LitVal {
    S(&'static str),
    I(i64),
    B(bool),
}

/// Per-spec setup: statements (rows + binds + target call, no asserts)
/// plus the `(model, field, literal)` triples seeded into the world
/// (candidates for `exists?` assertions).
struct SpecPlan {
    stmts: Vec<Stmt>,
    seeded: Vec<(usize, usize, LitVal)>,
}

/// A fully generated, frontend-validated problem whose hidden reference
/// passes every spec. Produced by [`gen_candidate`]; [`generate_problem`]
/// additionally guarantees it solves and matches the reference.
pub struct Candidate {
    /// Corpus index (drives the file name and benchmark id).
    pub index: usize,
    /// Attempt at which generation succeeded (recorded in the header).
    pub attempt: u32,
    /// Full file text: provenance header + canonical `.rbspec` body.
    pub text: String,
    /// The hidden reference program (never written to the file).
    pub reference: Program,
    /// The re-loaded file (parsed and lowered from `text`).
    pub loaded: LoadedSpec,
}

/// Outcome of solving a candidate and comparing against its reference.
pub enum Verdict {
    /// Solved, and the solution is observationally equivalent to the
    /// hidden reference on every spec world.
    Solved(Box<Program>),
    /// The solver hit its wall-clock deadline (clean exit 4 territory).
    Timeout,
    /// The bounded search exhausted without a program.
    NoSolution,
    /// A program was found but its evaluation fingerprints differ from the
    /// reference's on some spec world.
    Mismatch,
    /// Anything else (setup error, bad problem).
    Error(String),
}

// ── deterministic seed mixing ───────────────────────────────────────────

/// splitmix64-style finalizer combining corpus seed, index and attempt
/// into one RNG seed.
fn mix3(seed: u64, index: u64, attempt: u64) -> u64 {
    let mut z = seed
        ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ attempt.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick<'a, T>(rng: &mut StdRng, pool: &'a [T]) -> &'a T {
    &pool[rng.gen_range(0..pool.len())]
}

/// [`pick`] specialized to the `&'static str` pools (sidesteps the
/// `&&str` inference trap at value position).
fn pick_str(rng: &mut StdRng, pool: &'static [&'static str]) -> &'static str {
    pool[rng.gen_range(0..pool.len())]
}

fn sample_distinct(rng: &mut StdRng, pool_len: usize, n: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    while picked.len() < n.min(pool_len) {
        let i = rng.gen_range(0..pool_len);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

// ── surface-AST construction helpers ────────────────────────────────────

fn sp() -> Span {
    Span::default()
}

fn node(kind: ExprKind) -> ExprNode {
    ExprNode { kind, span: sp() }
}

fn f_var(n: &str) -> ExprNode {
    node(ExprKind::Var(n.to_owned()))
}

fn f_int(i: i64) -> ExprNode {
    node(ExprKind::Lit(Lit::Int(i)))
}

fn f_str(s: &str) -> ExprNode {
    node(ExprKind::Lit(Lit::Str(s.to_owned())))
}

fn f_bool(b: bool) -> ExprNode {
    node(ExprKind::Lit(Lit::Bool(b)))
}

fn f_class(n: &str) -> ExprNode {
    node(ExprKind::ClassRef(n.to_owned()))
}

fn f_call(recv: ExprNode, meth: &str, args: Vec<ExprNode>) -> ExprNode {
    node(ExprKind::Call {
        recv: Box::new(recv),
        meth: meth.to_owned(),
        args,
    })
}

fn f_hash(entries: Vec<(&str, ExprNode)>) -> ExprNode {
    node(ExprKind::HashLit(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), sp(), v))
            .collect(),
    ))
}

fn f_ty(name: &str) -> TypeExpr {
    TypeExpr {
        kind: TypeKind::Named(name.to_owned()),
        span: sp(),
    }
}

fn f_lit(l: LitVal) -> ExprNode {
    match l {
        LitVal::S(s) => f_str(s),
        LitVal::I(i) => f_int(i),
        LitVal::B(b) => f_bool(b),
    }
}

// ── dual (surface + λ_syn) expressions for derived assertions ───────────

/// An expression built in both representations at once: the surface form
/// goes into the emitted file, the λ_syn form is evaluated right away to
/// confirm the assertion actually holds in the post-target world.
struct Dual {
    front: ExprNode,
    lang: Expr,
}

fn d_var(n: &str) -> Dual {
    Dual {
        front: f_var(n),
        lang: lb::var(n),
    }
}

fn d_int(i: i64) -> Dual {
    Dual {
        front: f_int(i),
        lang: lb::int(i),
    }
}

fn d_str(s: &str) -> Dual {
    Dual {
        front: f_str(s),
        lang: lb::str_(s),
    }
}

fn d_class(name: &str, id: ClassId) -> Dual {
    Dual {
        front: f_class(name),
        lang: lb::cls(id),
    }
}

fn d_lit(l: LitVal) -> Dual {
    match l {
        LitVal::S(s) => d_str(s),
        LitVal::I(i) => d_int(i),
        LitVal::B(true) => Dual {
            front: f_bool(true),
            lang: lb::true_(),
        },
        LitVal::B(false) => Dual {
            front: f_bool(false),
            lang: lb::false_(),
        },
    }
}

fn d_not(inner: Dual) -> Dual {
    Dual {
        front: node(ExprKind::Not(Box::new(inner.front))),
        lang: lb::not(inner.lang),
    }
}

fn d_call(recv: Dual, meth: &str, args: Vec<Dual>) -> Dual {
    let (fronts, langs): (Vec<_>, Vec<_>) = args.into_iter().map(|d| (d.front, d.lang)).unzip();
    Dual {
        front: f_call(recv.front, meth, fronts),
        lang: lb::call(recv.lang, meth, langs),
    }
}

fn d_eq(a: Dual, b: Dual) -> Dual {
    d_call(a, "==", vec![b])
}

fn d_hash1(key: &str, val: Dual) -> Dual {
    Dual {
        front: f_hash(vec![(key, val.front)]),
        lang: lb::hash([(key, val.lang)]),
    }
}

// ── shape sampling ──────────────────────────────────────────────────────

fn prim_name(p: Prim) -> &'static str {
    match p {
        Prim::Str => "Str",
        Prim::Int => "Int",
        Prim::Bool => "Bool",
    }
}

fn genty_name(shape: &Shape, t: GenTy) -> &'static str {
    match t {
        GenTy::Prim(p) => prim_name(p),
        GenTy::Inst(m) => shape.models[m].name,
    }
}

fn lit_for(rng: &mut StdRng, p: Prim) -> LitVal {
    match p {
        Prim::Str => LitVal::S(pick_str(rng, &STR_LITS)),
        Prim::Int => LitVal::I(*pick(rng, &INT_LITS)),
        Prim::Bool => LitVal::B(rng.gen_range(0..2u32) == 0),
    }
}

fn helper_name(shape: &Shape, h: &Helper) -> String {
    match h {
        Helper::Total { .. } => "total".to_owned(),
        Helper::Has { model, field } => format!("has_{}", shape.models[*model].fields[*field].0),
        Helper::Add { model, field, .. } => {
            format!("add_{}", shape.models[*model].fields[*field].0)
        }
    }
}

fn sample_shape(rng: &mut StdRng) -> Shape {
    let model_count = 1 + rng.gen_range(0..2usize);
    let models: Vec<ModelShape> = sample_distinct(rng, MODEL_NAMES.len(), model_count)
        .into_iter()
        .map(|mi| {
            let nfields = 1 + rng.gen_range(0..3usize);
            let fields = sample_distinct(rng, FIELD_POOL.len(), nfields)
                .into_iter()
                .map(|fi| FIELD_POOL[fi])
                .collect();
            ModelShape {
                name: MODEL_NAMES[mi],
                fields,
            }
        })
        .collect();

    let param_count = rng.gen_range(0..3usize);
    let params: Vec<GenTy> = (0..param_count)
        .map(|_| match rng.gen_range(0..10u32) {
            0..=3 => GenTy::Prim(Prim::Str),
            4..=6 => GenTy::Prim(Prim::Int),
            7..=8 => GenTy::Prim(Prim::Bool),
            _ => GenTy::Inst(rng.gen_range(0..models.len())),
        })
        .collect();

    let ret = match rng.gen_range(0..10u32) {
        0..=2 => GenTy::Prim(Prim::Str),
        3..=5 => GenTy::Prim(Prim::Int),
        6..=7 => GenTy::Prim(Prim::Bool),
        _ => GenTy::Inst(rng.gen_range(0..models.len())),
    };

    let mut shape = Shape {
        models,
        helpers: Vec::new(),
        fname: pick_str(rng, &FN_NAMES),
        params,
        ret,
    };

    if rng.gen_range(0..2u32) == 0 {
        let want = 1 + rng.gen_range(0..2usize);
        for _ in 0..want {
            let model = rng.gen_range(0..shape.models.len());
            let field = rng.gen_range(0..shape.models[model].fields.len());
            let h = match rng.gen_range(0..3u32) {
                0 => Helper::Total { model },
                1 => Helper::Has { model, field },
                _ => Helper::Add {
                    model,
                    field,
                    hidden: rng.gen_range(0..4u32) == 0,
                },
            };
            let name = helper_name(&shape, &h);
            if !shape.helpers.iter().any(|e| helper_name(&shape, e) == name) {
                shape.helpers.push(h);
            }
        }
    }
    shape
}

// ── reference-program sampling (type-directed, search-space-only) ───────

fn params_of(shape: &Shape, want: GenTy) -> Vec<usize> {
    shape
        .params
        .iter()
        .enumerate()
        .filter(|(_, t)| **t == want)
        .map(|(i, _)| i)
        .collect()
}

fn arg_name(i: usize) -> String {
    format!("arg{i}")
}

/// A model whose field list contains a column of primitive type `p`,
/// together with that field's index.
fn model_with_field(shape: &Shape, p: Prim) -> Option<(usize, Vec<usize>)> {
    for (mi, m) in shape.models.iter().enumerate() {
        let fs: Vec<usize> = m
            .fields
            .iter()
            .enumerate()
            .filter(|(_, (_, fp))| *fp == p)
            .map(|(i, _)| i)
            .collect();
        if !fs.is_empty() {
            return Some((mi, fs));
        }
    }
    None
}

fn leaf(rng: &mut StdRng, shape: &Shape, ids: &[ClassId], want: GenTy) -> Expr {
    match want {
        GenTy::Prim(p) => {
            let ps = params_of(shape, want);
            if !ps.is_empty() && rng.gen_range(0..2u32) == 0 {
                lb::var(&arg_name(*pick(rng, &ps)))
            } else {
                match p {
                    Prim::Str => lb::str_(pick_str(rng, &STR_LITS)),
                    Prim::Int => lb::int(*pick(rng, &INT_LITS)),
                    Prim::Bool => {
                        if rng.gen_range(0..2u32) == 0 {
                            lb::true_()
                        } else {
                            lb::false_()
                        }
                    }
                }
            }
        }
        GenTy::Inst(mi) => {
            let ps = params_of(shape, want);
            if !ps.is_empty() && rng.gen_range(0..2u32) == 0 {
                lb::var(&arg_name(*pick(rng, &ps)))
            } else {
                let m = &shape.models[mi];
                let fi = rng.gen_range(0..m.fields.len());
                let (fname, fp) = m.fields[fi];
                let v = leaf(rng, shape, ids, GenTy::Prim(fp));
                lb::call(lb::cls(ids[mi]), "create!", [lb::hash([(fname, v)])])
            }
        }
    }
}

/// A model-instance source guaranteed to have field `fi` populated:
/// either an instance-typed parameter (spec setup rows set every column)
/// or a fresh `create!` that sets exactly that field.
fn inst_source(rng: &mut StdRng, shape: &Shape, ids: &[ClassId], mi: usize, fi: usize) -> Expr {
    let ps = params_of(shape, GenTy::Inst(mi));
    if !ps.is_empty() && rng.gen_range(0..2u32) == 0 {
        lb::var(&arg_name(*pick(rng, &ps)))
    } else {
        let (fname, fp) = shape.models[mi].fields[fi];
        let v = leaf(rng, shape, ids, GenTy::Prim(fp));
        lb::call(lb::cls(ids[mi]), "create!", [lb::hash([(fname, v)])])
    }
}

fn sample_expr(
    rng: &mut StdRng,
    shape: &Shape,
    ids: &[ClassId],
    want: GenTy,
    depth: usize,
) -> Expr {
    if depth == 0 {
        return leaf(rng, shape, ids, want);
    }
    match want {
        GenTy::Prim(Prim::Str) => {
            let mut opts: Vec<u32> = vec![0, 0, 1, 2];
            if model_with_field(shape, Prim::Str).is_some() {
                opts.push(3);
                opts.push(3);
            }
            match *pick(rng, &opts) {
                0 => {
                    let op = *pick(rng, &["upcase", "downcase", "reverse", "strip"]);
                    lb::call(sample_expr(rng, shape, ids, want, depth - 1), op, [])
                }
                1 => lb::call(
                    sample_expr(rng, shape, ids, want, depth - 1),
                    "+",
                    [leaf(rng, shape, ids, want)],
                ),
                2 => lb::call(
                    sample_expr(rng, shape, ids, GenTy::Prim(Prim::Int), depth - 1),
                    "to_s",
                    [],
                ),
                _ => {
                    let (mi, fs) = model_with_field(shape, Prim::Str).expect("checked above");
                    let fi = *pick(rng, &fs);
                    let recv = inst_source(rng, shape, ids, mi, fi);
                    lb::call(recv, shape.models[mi].fields[fi].0, [])
                }
            }
        }
        GenTy::Prim(Prim::Int) => {
            let mut opts: Vec<u32> = vec![0, 0, 1, 2, 2, 3, 4];
            if model_with_field(shape, Prim::Int).is_some() {
                opts.push(5);
            }
            match *pick(rng, &opts) {
                0 => {
                    let op = *pick(rng, &["+", "-", "*"]);
                    lb::call(
                        sample_expr(rng, shape, ids, want, depth - 1),
                        op,
                        [leaf(rng, shape, ids, want)],
                    )
                }
                1 => lb::call(
                    sample_expr(rng, shape, ids, GenTy::Prim(Prim::Str), depth - 1),
                    "length",
                    [],
                ),
                2 => {
                    let mi = rng.gen_range(0..shape.models.len());
                    lb::call(lb::cls(ids[mi]), "count", [])
                }
                3 => {
                    let op = *pick(rng, &["succ", "pred"]);
                    lb::call(sample_expr(rng, shape, ids, want, depth - 1), op, [])
                }
                4 => {
                    let mi = rng.gen_range(0..shape.models.len());
                    lb::call(lb::cls(ids[mi]), "delete_all", [])
                }
                _ => {
                    let (mi, fs) = model_with_field(shape, Prim::Int).expect("checked above");
                    let fi = *pick(rng, &fs);
                    let recv = inst_source(rng, shape, ids, mi, fi);
                    lb::call(recv, shape.models[mi].fields[fi].0, [])
                }
            }
        }
        GenTy::Prim(Prim::Bool) => {
            let mut opts: Vec<u32> = vec![0, 0, 1, 2, 3, 4, 4];
            if model_with_field(shape, Prim::Bool).is_some() {
                opts.push(5);
            }
            match *pick(rng, &opts) {
                0 => {
                    let t = if rng.gen_range(0..2u32) == 0 {
                        GenTy::Prim(Prim::Str)
                    } else {
                        GenTy::Prim(Prim::Int)
                    };
                    lb::call(
                        sample_expr(rng, shape, ids, t, depth - 1),
                        "==",
                        [leaf(rng, shape, ids, t)],
                    )
                }
                1 => lb::call(
                    sample_expr(rng, shape, ids, GenTy::Prim(Prim::Str), depth - 1),
                    "empty?",
                    [],
                ),
                2 => {
                    let op = *pick(rng, &["include?", "start_with?", "end_with?"]);
                    lb::call(
                        sample_expr(rng, shape, ids, GenTy::Prim(Prim::Str), depth - 1),
                        op,
                        [lb::str_(pick_str(rng, &STR_LITS))],
                    )
                }
                3 => {
                    let op = *pick(rng, &["zero?", "even?", "odd?", "positive?"]);
                    lb::call(
                        sample_expr(rng, shape, ids, GenTy::Prim(Prim::Int), depth - 1),
                        op,
                        [],
                    )
                }
                4 => {
                    let mi = rng.gen_range(0..shape.models.len());
                    let m = &shape.models[mi];
                    let fi = rng.gen_range(0..m.fields.len());
                    let (fname, fp) = m.fields[fi];
                    let v = leaf(rng, shape, ids, GenTy::Prim(fp));
                    lb::call(lb::cls(ids[mi]), "exists?", [lb::hash([(fname, v)])])
                }
                _ => {
                    let (mi, fs) = model_with_field(shape, Prim::Bool).expect("checked above");
                    let fi = *pick(rng, &fs);
                    let recv = inst_source(rng, shape, ids, mi, fi);
                    lb::call(recv, shape.models[mi].fields[fi].0, [])
                }
            }
        }
        GenTy::Inst(mi) => {
            let m = &shape.models[mi];
            let fi = rng.gen_range(0..m.fields.len());
            let (fname, fp) = m.fields[fi];
            let v = sample_expr(rng, shape, ids, GenTy::Prim(fp), depth - 1);
            let meth = if rng.gen_range(0..3u32) == 0 {
                "find_or_create_by"
            } else {
                "create!"
            };
            lb::call(lb::cls(ids[mi]), meth, [lb::hash([(fname, v)])])
        }
    }
}

fn expr_size(e: &Expr) -> usize {
    match e {
        Expr::Lit(_) | Expr::Var(_) | Expr::Hole(_) | Expr::EffHole(_) => 1,
        Expr::Call { recv, args, .. } => {
            1 + expr_size(recv) + args.iter().map(expr_size).sum::<usize>()
        }
        Expr::HashLit(entries) => 1 + entries.iter().map(|(_, v)| expr_size(v)).sum::<usize>(),
        Expr::Seq(es) => 1 + es.iter().map(expr_size).sum::<usize>(),
        Expr::If { cond, then, els } => 1 + expr_size(cond) + expr_size(then) + expr_size(els),
        Expr::Let { val, body, .. } => 1 + expr_size(val) + expr_size(body),
        Expr::Not(inner) => 1 + expr_size(inner),
        Expr::Or(a, b) => 1 + expr_size(a) + expr_size(b),
    }
}

fn collect_consts(e: &Expr, lits: &mut Vec<Value>, classes: &mut Vec<ClassId>) {
    match e {
        Expr::Lit(Value::Class(c)) => {
            if !classes.contains(c) {
                classes.push(*c);
            }
        }
        Expr::Lit(v) => {
            let base = matches!(
                v,
                Value::Nil | Value::Bool(_) | Value::Int(0) | Value::Int(1)
            ) || matches!(v, Value::Str(s) if s.is_empty());
            if !base && !lits.contains(v) {
                lits.push(v.clone());
            }
        }
        Expr::Var(_) | Expr::Hole(_) | Expr::EffHole(_) => {}
        Expr::Call { recv, args, .. } => {
            collect_consts(recv, lits, classes);
            for a in args {
                collect_consts(a, lits, classes);
            }
        }
        Expr::HashLit(entries) => {
            for (_, v) in entries {
                collect_consts(v, lits, classes);
            }
        }
        Expr::Seq(es) => {
            for x in es {
                collect_consts(x, lits, classes);
            }
        }
        Expr::If { cond, then, els } => {
            collect_consts(cond, lits, classes);
            collect_consts(then, lits, classes);
            collect_consts(els, lits, classes);
        }
        Expr::Let { val, body, .. } => {
            collect_consts(val, lits, classes);
            collect_consts(body, lits, classes);
        }
        Expr::Not(inner) => collect_consts(inner, lits, classes),
        Expr::Or(a, b) => {
            collect_consts(a, lits, classes);
            collect_consts(b, lits, classes);
        }
    }
}

// ── spec-setup planning ─────────────────────────────────────────────────

fn row_create(m: &ModelShape, lits: &[LitVal]) -> ExprNode {
    let entries = m
        .fields
        .iter()
        .zip(lits)
        .map(|((fname, _), l)| (*fname, f_lit(*l)))
        .collect();
    f_call(f_class(m.name), "create", vec![f_hash(entries)])
}

fn plan_spec(rng: &mut StdRng, shape: &Shape) -> SpecPlan {
    let mut stmts = Vec::new();
    let mut seeded = Vec::new();
    for (mi, m) in shape.models.iter().enumerate() {
        let rows = rng.gen_range(0..3u32);
        for _ in 0..rows {
            let lits: Vec<LitVal> = m.fields.iter().map(|(_, p)| lit_for(rng, *p)).collect();
            for (fi, l) in lits.iter().enumerate() {
                seeded.push((mi, fi, *l));
            }
            stmts.push(Stmt::Exec(row_create(m, &lits)));
        }
    }
    let mut args = Vec::new();
    let mut bindn = 0usize;
    for p in &shape.params {
        match p {
            GenTy::Prim(pr) => args.push(f_lit(lit_for(rng, *pr))),
            GenTy::Inst(mi) => {
                let m = &shape.models[*mi];
                let lits: Vec<LitVal> = m.fields.iter().map(|(_, pr)| lit_for(rng, *pr)).collect();
                for (fi, l) in lits.iter().enumerate() {
                    seeded.push((*mi, fi, *l));
                }
                let name = format!("a{bindn}");
                bindn += 1;
                stmts.push(Stmt::Bind {
                    name: name.clone(),
                    name_span: sp(),
                    value: row_create(m, &lits),
                });
                args.push(f_var(&name));
            }
        }
    }
    stmts.push(Stmt::Target {
        bind: "updated".to_owned(),
        args,
        span: sp(),
    });
    SpecPlan { stmts, seeded }
}

// ── file assembly ───────────────────────────────────────────────────────

fn eff_star(class: &str) -> EffPath {
    EffPath {
        class: Some(class.to_owned()),
        region: None,
        bare_star: false,
        span: sp(),
    }
}

fn helper_def(shape: &Shape, h: &Helper) -> MethodDef {
    let (model, params, ret, reads, writes, hidden, body): (
        usize,
        Vec<ParamDecl>,
        TypeExpr,
        Vec<EffPath>,
        Vec<EffPath>,
        bool,
        ExprNode,
    ) = match h {
        Helper::Total { model } => {
            let name = shape.models[*model].name;
            (
                *model,
                vec![],
                f_ty("Int"),
                vec![eff_star(name)],
                vec![],
                false,
                f_call(f_class(name), "count", vec![]),
            )
        }
        Helper::Has { model, field } => {
            let name = shape.models[*model].name;
            let (fname, fp) = shape.models[*model].fields[*field];
            (
                *model,
                vec![ParamDecl {
                    name: "v".to_owned(),
                    name_span: sp(),
                    ty: f_ty(prim_name(fp)),
                }],
                f_ty("Bool"),
                vec![eff_star(name)],
                vec![],
                false,
                f_call(
                    f_class(name),
                    "exists?",
                    vec![f_hash(vec![(fname, f_var("v"))])],
                ),
            )
        }
        Helper::Add {
            model,
            field,
            hidden,
        } => {
            let name = shape.models[*model].name;
            let (fname, fp) = shape.models[*model].fields[*field];
            (
                *model,
                vec![ParamDecl {
                    name: "v".to_owned(),
                    name_span: sp(),
                    ty: f_ty(prim_name(fp)),
                }],
                f_ty(name),
                vec![eff_star(name)],
                vec![eff_star(name)],
                *hidden,
                f_call(
                    f_class(name),
                    "create!",
                    vec![f_hash(vec![(fname, f_var("v"))])],
                ),
            )
        }
    };
    MethodDef {
        owner: shape.models[model].name.to_owned(),
        owner_span: sp(),
        instance: false,
        name: helper_name(shape, h),
        name_span: sp(),
        params,
        ret,
        reads,
        writes,
        hidden,
        body: vec![Stmt::Exec(body)],
        span: sp(),
    }
}

fn build_file(
    shape: &Shape,
    index: usize,
    plans: &[SpecPlan],
    asserts: &[Vec<ExprNode>],
    consts: Vec<ConstItem>,
    options: Vec<OptionEntry>,
) -> SpecFile {
    let mut decls: Vec<Decl> = shape
        .models
        .iter()
        .map(|m| {
            Decl::Model(ModelDecl {
                name: m.name.to_owned(),
                name_span: sp(),
                writers: true,
                fields: m
                    .fields
                    .iter()
                    .map(|(n, p)| FieldDecl {
                        name: (*n).to_owned(),
                        name_span: sp(),
                        ty: f_ty(prim_name(*p)),
                    })
                    .collect(),
            })
        })
        .collect();
    for h in &shape.helpers {
        decls.push(Decl::Def(helper_def(shape, h)));
    }
    let specs: Vec<SpecBlock> = plans
        .iter()
        .zip(asserts)
        .enumerate()
        .map(|(j, (p, asr))| SpecBlock {
            title: format!("case {}", j + 1),
            title_span: sp(),
            stmts: p
                .stmts
                .iter()
                .cloned()
                .chain(asr.iter().cloned().map(|e| Stmt::Assert(e, sp())))
                .collect(),
            span: sp(),
        })
        .collect();
    SpecFile {
        meta: Some(Meta {
            id: Some((format!("gen{index:04}"), sp())),
            group: Some(("Synthetic".to_owned(), sp())),
            name: Some((shape.fname.to_owned(), sp())),
            orig_paths: Some((1, sp())),
            span: sp(),
        }),
        decls,
        options,
        define: Define {
            name: shape.fname.to_owned(),
            name_span: sp(),
            params: shape
                .params
                .iter()
                .enumerate()
                .map(|(i, t)| ParamDecl {
                    name: arg_name(i),
                    name_span: sp(),
                    ty: f_ty(genty_name(shape, *t)),
                })
                .collect(),
            ret: f_ty(genty_name(shape, shape.ret)),
            consts,
            specs,
            span: sp(),
        },
    }
}

fn build_consts(lits: &[Value], classes: &[ClassId]) -> Vec<ConstItem> {
    let mut out = vec![ConstItem {
        kind: ConstKind::Base,
        span: sp(),
    }];
    for v in lits {
        let lit = match v {
            Value::Int(i) => Lit::Int(*i),
            Value::Str(s) => Lit::Str(s.to_string()),
            _ => continue,
        };
        out.push(ConstItem {
            kind: ConstKind::Lit(lit),
            span: sp(),
        });
    }
    for c in classes {
        out.push(ConstItem {
            kind: ConstKind::Class(c.name.as_str().to_owned()),
            span: sp(),
        });
    }
    out
}

fn build_options(ref_size: usize) -> Vec<OptionEntry> {
    let entry = |key: &str, v: i64| OptionEntry {
        key: key.to_owned(),
        key_span: sp(),
        value: v,
        value_span: sp(),
    };
    vec![
        entry("max_size", (ref_size + 3).clamp(4, 10) as i64),
        entry("max_expansions", 200_000),
        entry("timeout_secs", 30),
    ]
}

// ── assertion derivation ────────────────────────────────────────────────

fn derive_asserts(
    rng: &mut StdRng,
    shape: &Shape,
    ids: &[ClassId],
    env: &rbsyn_interp::InterpEnv,
    spec: &Spec,
    reference: &Program,
    plan: &SpecPlan,
) -> Option<Vec<ExprNode>> {
    let mut state = WorldState::fresh(env);
    let mut ev = Evaluator::new(env, &mut state);
    let mut locals = Locals::new();
    for step in &spec.steps {
        match step {
            SetupStep::Bind(name, e) => {
                let v = ev.eval(&mut locals, e).ok()?;
                locals.bind(*name, v);
            }
            SetupStep::Exec(e) => {
                ev.eval(&mut locals, e).ok()?;
            }
            SetupStep::CallTarget { bind, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(ev.eval(&mut locals, a).ok()?);
                }
                let v = ev.call_program(reference, vals).ok()?;
                locals.bind(*bind, v);
            }
            SetupStep::Native(_) => return None,
        }
    }
    let updated = locals.get(Symbol::intern("updated")).cloned()?;
    let mut out: Vec<Dual> = Vec::new();
    match &updated {
        Value::Bool(true) => out.push(d_var("updated")),
        Value::Bool(false) => out.push(d_not(d_var("updated"))),
        Value::Int(n) => out.push(d_eq(d_var("updated"), d_int(*n))),
        Value::Str(s) => out.push(d_eq(d_var("updated"), d_str(s))),
        Value::Obj(_) => {
            let GenTy::Inst(mi) = shape.ret else {
                return None;
            };
            out.push(d_call(d_var("updated"), "persisted?", vec![]));
            for (fname, _) in &shape.models[mi].fields {
                let d = d_call(d_var("updated"), fname, vec![]);
                match ev.eval(&mut locals, &d.lang).ok()? {
                    Value::Str(s) => out.push(d_eq(d, d_str(&s))),
                    Value::Int(n) => out.push(d_eq(d, d_int(n))),
                    Value::Bool(true) => out.push(d),
                    Value::Bool(false) => out.push(d_not(d)),
                    _ => {}
                }
            }
        }
        _ => return None,
    }
    for (mi, m) in shape.models.iter().enumerate() {
        if rng.gen_range(0..2u32) == 1 {
            continue;
        }
        let d = d_eq(
            d_call(d_class(m.name, ids[mi]), "count", vec![]),
            d_int(
                match ev.eval(&mut locals, &lb::call(lb::cls(ids[mi]), "count", [])) {
                    Ok(Value::Int(c)) => c,
                    _ => continue,
                },
            ),
        );
        out.push(d);
    }
    if !plan.seeded.is_empty() && rng.gen_range(0..2u32) == 0 {
        let (mi, fi, l) = plan.seeded[rng.gen_range(0..plan.seeded.len())];
        let m = &shape.models[mi];
        let d = d_call(
            d_class(m.name, ids[mi]),
            "exists?",
            vec![d_hash1(m.fields[fi].0, d_lit(l))],
        );
        if matches!(ev.eval(&mut locals, &d.lang), Ok(Value::Bool(true))) {
            out.push(d);
        }
    }
    let mut fronts = Vec::new();
    for d in out.into_iter().take(4) {
        if ev.eval(&mut locals, &d.lang).ok()?.truthy() {
            fronts.push(d.front);
        }
    }
    if fronts.is_empty() {
        return None;
    }
    Some(fronts)
}

// ── candidate generation and the differential gate ──────────────────────

fn header(seed: u64, index: usize, attempt: u32) -> String {
    format!(
        "# Generated by specgen; do not edit — `specgen --regen` rewrites this directory.\n\
         # specgen: seed={seed} index={index} attempt={attempt}\n\n"
    )
}

/// The `(seed, index, attempt)` triple recorded in a generated file's
/// header — everything needed to re-derive the file and its hidden
/// reference deterministically.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GenKey {
    /// Corpus seed.
    pub seed: u64,
    /// Corpus index.
    pub index: usize,
    /// Accepted attempt number.
    pub attempt: u32,
}

/// Parses the `# specgen: seed=… index=… attempt=…` header line of a
/// generated file.
pub fn parse_header(text: &str) -> Option<GenKey> {
    for line in text.lines().take(5) {
        let Some(rest) = line.strip_prefix("# specgen: ") else {
            continue;
        };
        let (mut seed, mut index, mut attempt) = (None, None, None);
        for part in rest.split_whitespace() {
            let (k, v) = part.split_once('=')?;
            match k {
                "seed" => seed = v.parse().ok(),
                "index" => index = v.parse().ok(),
                "attempt" => attempt = v.parse().ok(),
                _ => {}
            }
        }
        return Some(GenKey {
            seed: seed?,
            index: index?,
            attempt: attempt?,
        });
    }
    None
}

/// Generates one candidate problem for `(seed, index, attempt)`: sampled,
/// executed, printed, re-loaded through the full frontend, and validated
/// (reference passes every spec; printing is canonical). Returns `None`
/// when this attempt dead-ends (the caller retries with `attempt + 1`).
/// Does **not** run the solver — see [`generate_problem`].
pub fn gen_candidate(seed: u64, index: usize, attempt: u32) -> Option<Candidate> {
    gen_candidate_with(seed, index, attempt, None)
}

/// [`gen_candidate`] with an explicit spec-count override (used to build
/// oversized, >64-spec problems that exercise the guard-pool fallback).
pub fn gen_candidate_with(
    seed: u64,
    index: usize,
    attempt: u32,
    spec_count: Option<usize>,
) -> Option<Candidate> {
    let mut rng = StdRng::seed_from_u64(mix3(seed, index as u64, attempt as u64));
    let shape = sample_shape(&mut rng);
    let nspecs = spec_count.unwrap_or_else(|| 1 + rng.gen_range(0..3usize));
    let plans: Vec<SpecPlan> = (0..nspecs).map(|_| plan_spec(&mut rng, &shape)).collect();

    // Pass 1: provisional file (placeholder asserts) to get lowered setup
    // steps and the environment's class ids.
    let provisional: Vec<Vec<ExprNode>> = (0..nspecs).map(|_| vec![f_bool(true)]).collect();
    let file1 = build_file(&shape, index, &plans, &provisional, vec![], vec![]);
    let lowered1 = rbsyn_front::lower(&file1).ok()?;
    let ids: Vec<ClassId> = shape
        .models
        .iter()
        .map(|m| lowered1.env.table.hierarchy.find(m.name))
        .collect::<Option<Vec<_>>>()?;

    // The hidden reference, sampled from the search grammar.
    let depth = 1 + rng.gen_range(0..2usize);
    let body = sample_expr(&mut rng, &shape, &ids, shape.ret, depth);
    let param_syms: Vec<Symbol> = (0..shape.params.len())
        .map(|i| Symbol::intern(&arg_name(i)))
        .collect();
    let reference = Program::from_parts(Symbol::intern(shape.fname), param_syms, body);

    // Execute the reference against each spec world and derive asserts.
    let mut all_asserts: Vec<Vec<ExprNode>> = Vec::with_capacity(nspecs);
    for (j, spec) in lowered1.problem.specs.iter().enumerate() {
        all_asserts.push(derive_asserts(
            &mut rng,
            &shape,
            &ids,
            &lowered1.env,
            spec,
            &reference,
            &plans[j],
        )?);
    }

    // Pass 2: the real file, with Σ covering every reference terminal.
    let mut lits = Vec::new();
    let mut classes = Vec::new();
    collect_consts(&reference.body, &mut lits, &mut classes);
    let file2 = build_file(
        &shape,
        index,
        &plans,
        &all_asserts,
        build_consts(&lits, &classes),
        build_options(expr_size(&reference.body)),
    );
    let body_text = to_rbspec(&file2);
    let text = format!("{}{body_text}", header(seed, index, attempt));

    // Full frontend round trip: parse + lower + canonical re-print.
    let origin = format!("gen{index:04}.rbspec");
    let loaded = load_str(&text, &origin).ok()?;
    if to_rbspec(&loaded.file) != body_text {
        return None;
    }
    for spec in &loaded.lowered.problem.specs {
        if !run_spec(&loaded.lowered.env, spec, &reference).passed() {
            return None;
        }
    }
    Some(Candidate {
        index,
        attempt,
        text,
        reference,
        loaded,
    })
}

/// Solves a candidate under its file options and compares the solution
/// against the hidden reference by observational equivalence: both
/// programs must pass every spec with identical
/// [`PreparedSpec::run_traced`] evaluation fingerprints.
///
/// With `honor_timeout: false` the file's wall-clock deadline is dropped
/// and only the deterministic `max_expansions` budget bounds the search —
/// that is the generation-time acceptance test, and it is
/// machine-independent.
pub fn solve_and_check(c: &Candidate, honor_timeout: bool) -> Verdict {
    let (env, problem) = c.loaded.build();
    let mut opts = c.loaded.lowered.options.clone();
    if !honor_timeout {
        opts.timeout = None;
    }
    match Synthesizer::new(env, problem, opts).run() {
        Ok(res) => {
            let (env2, problem2) = c.loaded.build();
            for spec in &problem2.specs {
                let prepared = match PreparedSpec::prepare(&env2, spec) {
                    Ok(p) => p,
                    Err(e) => return Verdict::Error(format!("spec setup failed: {e:?}")),
                };
                let (o1, f1) = prepared.run_traced(&env2, &res.program);
                let (o2, f2) = prepared.run_traced(&env2, &c.reference);
                if !o1.passed() || !o2.passed() || f1.is_none() || f1 != f2 {
                    return Verdict::Mismatch;
                }
            }
            Verdict::Solved(Box::new(res.program))
        }
        Err(SynthError::Timeout) => Verdict::Timeout,
        Err(SynthError::NoSolution { .. } | SynthError::MergeFailed) => Verdict::NoSolution,
        Err(e) => Verdict::Error(format!("{e:?}")),
    }
}

/// Generates the corpus problem for `(seed, index)`: retries attempts
/// until one both survives [`gen_candidate`] and is *verified solvable*
/// (solves within its deterministic budget, observationally equivalent to
/// its hidden reference).
pub fn generate_problem(seed: u64, index: usize) -> Result<Candidate, String> {
    for attempt in 0..MAX_ATTEMPTS {
        if let Some(c) = gen_candidate(seed, index, attempt) {
            if matches!(solve_and_check(&c, false), Verdict::Solved(_)) {
                return Ok(c);
            }
        }
    }
    Err(format!(
        "specgen: index {index}: no solvable problem within {MAX_ATTEMPTS} attempts"
    ))
}

// ── corpus I/O ──────────────────────────────────────────────────────────

/// Writes the full corpus (plus `MANIFEST.txt`) into `dir`, creating it
/// if needed. Byte-reproducible for a fixed `(seed, count)`.
pub fn write_corpus(dir: &Path, seed: u64, count: usize, verbose: bool) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for index in 0..count {
        let c = generate_problem(seed, index)?;
        let path = dir.join(format!("gen{index:04}.rbspec"));
        rbsyn_lang::persist::atomic_write(&path, c.text.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if verbose && (index + 1) % 25 == 0 {
            eprintln!("  specgen: {}/{count} problems written", index + 1);
        }
    }
    let manifest = format!(
        "# specgen corpus manifest — regenerate with `specgen --regen`.\n\
         version 1\nseed {seed}\ncount {count}\n"
    );
    rbsyn_lang::persist::atomic_write(&dir.join("MANIFEST.txt"), manifest.as_bytes())
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(())
}

/// Reads `(seed, count)` back from a corpus directory's `MANIFEST.txt`.
pub fn read_manifest(dir: &Path) -> Result<(u64, usize), String> {
    let path = dir.join("MANIFEST.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut seed = None;
    let mut count = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("seed ") {
            seed = v.trim().parse().ok();
        } else if let Some(v) = line.strip_prefix("count ") {
            count = v.trim().parse().ok();
        }
    }
    match (seed, count) {
        (Some(s), Some(c)) => Ok((s, c)),
        _ => Err(format!("{}: missing seed/count lines", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_are_deterministic() {
        let mut first = None;
        for attempt in 0..50 {
            if let Some(c) = gen_candidate(7, 0, attempt) {
                first = Some((attempt, c.text));
                break;
            }
        }
        let (attempt, text) = first.expect("some attempt under 50 yields a candidate");
        let again = gen_candidate(7, 0, attempt).expect("same attempt regenerates");
        assert_eq!(again.text, text, "generation must be a pure function");
    }

    #[test]
    fn candidate_text_parses_and_reference_passes() {
        let mut found = 0;
        for index in 0..6 {
            for attempt in 0..50 {
                let Some(c) = gen_candidate(11, index, attempt) else {
                    continue;
                };
                found += 1;
                assert!(c.text.starts_with("# Generated by specgen"));
                let key = parse_header(&c.text).expect("header parses");
                assert_eq!(
                    key,
                    GenKey {
                        seed: 11,
                        index,
                        attempt
                    }
                );
                // gen_candidate already re-validated the reference through
                // the reloaded file; spot-check the problem is well-formed.
                c.loaded.lowered.problem.validate().expect("valid problem");
                break;
            }
        }
        assert!(
            found >= 4,
            "most indices should generate within 50 attempts"
        );
    }

    #[test]
    fn generated_problem_solves_and_matches_reference() {
        let c = generate_problem(3, 0).expect("index 0 generates");
        match solve_and_check(&c, false) {
            Verdict::Solved(_) => {}
            _ => panic!("accepted problem must re-solve deterministically"),
        }
    }

    #[test]
    fn oversized_spec_count_survives_the_pipeline() {
        // 65 specs is one past a one-word guard-pool bit plane:
        // problems this wide must still generate, print, re-load, and
        // validate. The pool's planes are `⌈specs / 64⌉` words wide, so
        // one representation answers every spec count.
        let mut produced = None;
        'outer: for index in 0..4 {
            for attempt in 0..80 {
                if let Some(c) = gen_candidate_with(13, index, attempt, Some(65)) {
                    produced = Some(c);
                    break 'outer;
                }
            }
        }
        let c = produced.expect("an oversized candidate generates");
        let problem = &c.loaded.lowered.problem;
        assert!(
            problem.specs.len() > 64,
            "override must overflow one bitvector word, got {}",
            problem.specs.len()
        );
        problem
            .validate()
            .expect("oversized problem is well-formed");
        // And it is deterministic like every other candidate.
        let key = parse_header(&c.text).expect("header parses");
        let again = gen_candidate_with(key.seed, key.index, key.attempt, Some(65))
            .expect("same key regenerates");
        assert_eq!(again.text, c.text);
        // The oversized problem solves through the unified pool engine.
        let (env, problem) = c.loaded.build();
        let mut opts = c.loaded.lowered.options.clone();
        opts.timeout = None;
        Synthesizer::new(env, problem, opts)
            .run()
            .expect("oversized problem solves");
    }

    #[test]
    fn manifest_round_trips() {
        let dir = std::env::temp_dir().join("specgen-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("MANIFEST.txt"),
            "# c\nversion 1\nseed 42\ncount 7\n",
        )
        .unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), (42, 7));
    }
}
