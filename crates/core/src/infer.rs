//! Type checking of candidate expressions — the T-rules of Fig. 4/Fig. 11.
//!
//! The search re-typechecks every candidate after a hole substitution; this
//! implements the paper's *type narrowing* (§3.1): filling a receiver hole
//! with `nil` narrows the receiver type to `Nil`, which has no methods, so
//! the derivation fails and the whole branch of the search is pruned before
//! any test is run.

use rbsyn_lang::{Expr, Symbol, Ty, Value};
use rbsyn_ty::{is_subtype, ClassTable, MethodKind};
use std::borrow::Borrow;

/// A typing environment `Γ` (spine of bindings; lookups scan innermost
/// first to honour shadowing).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Gamma {
    binds: Vec<(Symbol, Ty)>,
}

impl Gamma {
    /// Empty environment.
    pub fn new() -> Gamma {
        Gamma::default()
    }

    /// From parameter bindings.
    pub fn from_params(params: &[(Symbol, Ty)]) -> Gamma {
        Gamma {
            binds: params.to_vec(),
        }
    }

    /// Binds a variable.
    pub fn bind(&mut self, x: Symbol, t: Ty) {
        self.binds.push((x, t));
    }

    /// Scope mark for save/restore.
    pub fn mark(&self) -> usize {
        self.binds.len()
    }

    /// Restores to a mark.
    pub fn release(&mut self, m: usize) {
        self.binds.truncate(m);
    }

    /// Innermost type of `x`.
    pub fn get(&self, x: Symbol) -> Option<&Ty> {
        self.binds
            .iter()
            .rev()
            .find(|(n, _)| *n == x)
            .map(|(_, t)| t)
    }

    /// All bindings (outermost first), for variable enumeration (S-Var).
    pub fn bindings(&self) -> &[(Symbol, Ty)] {
        &self.binds
    }
}

/// Most specific type of a literal value.
pub fn ty_of_value(table: &ClassTable, v: &Value) -> Ty {
    table.ty_of_value(v)
}

/// Infers the type of `e` under `Γ`, or `None` when the expression has no
/// typing derivation (the search discards such candidates when type
/// guidance is on).
///
/// The rules for variables, calls and hash literals live in helpers that
/// take the children's types (`var_ty`, `app_ty`, `hash_ty`), so a caller
/// that already knows every child's type — the node arena (`arena.rs`),
/// which types each hash-consed node once from its children's stored
/// types — applies exactly the rules this recursion does.
pub fn infer_ty(table: &ClassTable, gamma: &mut Gamma, e: &Expr) -> Option<Ty> {
    match e {
        // T-Nil / T-True / T-False / T-Obj and friends.
        Expr::Lit(v) => Some(ty_of_value(table, v)),
        Expr::Var(x) => var_ty(gamma, *x),
        // T-Seq: the sequence has the type of its last expression.
        Expr::Seq(es) => {
            let mut last = Ty::Nil;
            for e in es {
                last = infer_ty(table, gamma, e)?;
            }
            Some(last)
        }
        Expr::Call { recv, meth, args } => {
            let recv_ty = infer_ty(table, gamma, recv)?;
            app_ty(
                table,
                &recv_ty,
                *meth,
                args.iter().map(|a| infer_ty(table, gamma, a)),
            )
        }
        // T-If: the union of the branch types.
        Expr::If { cond, then, els } => {
            infer_ty(table, gamma, cond)?;
            let t1 = infer_ty(table, gamma, then)?;
            let t2 = infer_ty(table, gamma, els)?;
            Some(Ty::union(vec![t1, t2]))
        }
        // T-Let.
        Expr::Let { var, val, body } => {
            let vt = infer_ty(table, gamma, val)?;
            let m = gamma.mark();
            gamma.bind(*var, vt);
            let out = infer_ty(table, gamma, body);
            gamma.release(m);
            out
        }
        Expr::HashLit(entries) => {
            hash_ty(entries.iter().map(|(k, v)| (*k, infer_ty(table, gamma, v))))
        }
        // T-NegB / T-OrB.
        Expr::Not(b) => {
            infer_ty(table, gamma, b)?;
            Some(Ty::Bool)
        }
        Expr::Or(a, b) => {
            infer_ty(table, gamma, a)?;
            infer_ty(table, gamma, b)?;
            Some(Ty::Bool)
        }
        // T-Hole: a hole has its annotated type.
        Expr::Hole(t) => Some(t.clone()),
        // T-EffHole: effect holes type at Obj (top), so they can be filled
        // by a term of any type (§3.2).
        Expr::EffHole(_) => Some(Ty::Obj),
    }
}

/// T-Var: the innermost binding of `x`.
pub(crate) fn var_ty(gamma: &Gamma, x: Symbol) -> Option<Ty> {
    gamma.get(x).cloned()
}

/// T-App from the receiver's and the arguments' types: the receiver class
/// must define `meth`, the arity must match, and every argument must fit
/// the (possibly comp-resolved) parameter type. Argument types are pulled
/// lazily, left to right, and `None` (an untypable argument) fails the
/// rule.
pub(crate) fn app_ty<T: Borrow<Ty>>(
    table: &ClassTable,
    recv: &Ty,
    meth: Symbol,
    args: impl ExactSizeIterator<Item = Option<T>>,
) -> Option<Ty> {
    let resolved = resolve_call(table, recv, meth)?;
    if resolved.params.len() != args.len() {
        return None;
    }
    for (at, p) in args.zip(&resolved.params) {
        if !is_subtype(&table.hierarchy, at?.borrow(), p) {
            return None;
        }
    }
    Some(resolved.ret)
}

/// Hash literals synthesize a finite hash type from their entries' types
/// (`None` when any entry is untypable).
pub(crate) fn hash_ty<T: Borrow<Ty>>(
    entries: impl Iterator<Item = (Symbol, Option<T>)>,
) -> Option<Ty> {
    let mut fields = Vec::with_capacity(entries.size_hint().0);
    for (key, vt) in entries {
        fields.push(rbsyn_lang::types::HashField {
            key,
            ty: vt?.borrow().clone(),
            optional: false,
        });
    }
    Some(Ty::FiniteHash(rbsyn_lang::FiniteHash::new(fields)))
}

/// Resolves a method against a receiver *type*, returning parameter and
/// return types (comp types resolve against the concrete receiver type —
/// the narrowing cascade of §4).
pub fn resolve_call(
    table: &ClassTable,
    recv_ty: &Ty,
    meth: Symbol,
) -> Option<rbsyn_ty::ResolvedSig> {
    let (class, kind) = match recv_ty {
        Ty::SingletonClass(c) => (*c, MethodKind::Singleton),
        other => (table.hierarchy.class_of_ty(other)?, MethodKind::Instance),
    };
    let (_, entry) = table.lookup(class, kind, meth)?;
    entry.sig.resolve(&table.hierarchy, recv_ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbsyn_lang::builder::*;
    use rbsyn_stdlib::EnvBuilder;

    fn blog() -> (ClassTable, rbsyn_lang::ClassId) {
        let mut b = EnvBuilder::with_stdlib();
        let post = b.define_model("Post", &[("author", Ty::Str), ("title", Ty::Str)]);
        let env = b.finish();
        (env.table, post)
    }

    #[test]
    fn literals_and_vars() {
        let (table, _) = blog();
        let mut g = Gamma::new();
        g.bind(Symbol::intern("x"), Ty::Str);
        assert_eq!(infer_ty(&table, &mut g, &int(1)), Some(Ty::Int));
        assert_eq!(infer_ty(&table, &mut g, &var("x")), Some(Ty::Str));
        assert_eq!(infer_ty(&table, &mut g, &var("y")), None);
        assert_eq!(infer_ty(&table, &mut g, &nil()), Some(Ty::Nil));
    }

    #[test]
    fn calls_resolve_through_comp_types() {
        let (table, post) = blog();
        let mut g = Gamma::new();
        // Post.where({title: "x"}).first : Post
        let e = call(
            call(cls(post), "where", [hash([("title", str_("x"))])]),
            "first",
            [],
        );
        assert_eq!(infer_ty(&table, &mut g, &e), Some(Ty::Instance(post)));
    }

    #[test]
    fn narrowing_prunes_nil_receivers() {
        let (table, _) = blog();
        let mut g = Gamma::new();
        // nil.upcase has no derivation: NilClass has no upcase.
        let e = call(nil(), "upcase", []);
        assert_eq!(infer_ty(&table, &mut g, &e), None);
        // But nil.nil? does (NilClass#nil? exists).
        let ok = call(nil(), "nil?", []);
        assert_eq!(infer_ty(&table, &mut g, &ok), Some(Ty::Bool));
    }

    #[test]
    fn argument_subtyping_is_enforced() {
        let (table, post) = blog();
        let mut g = Gamma::new();
        // Unknown hash key for where: {nope: Str} is not a subtype of the
        // column hash.
        let bad = call(cls(post), "where", [hash([("nope", str_("x"))])]);
        assert_eq!(infer_ty(&table, &mut g, &bad), None);
        // Wrong arg type to String#+.
        let bad2 = call(str_("a"), "+", [int(1)]);
        assert_eq!(infer_ty(&table, &mut g, &bad2), None);
    }

    #[test]
    fn lets_seqs_ifs_and_guards() {
        let (table, post) = blog();
        let mut g = Gamma::new();
        let e = let_(
            "t0",
            call(cls(post), "first", []),
            seq([call(var("t0"), "title", []), var("t0")]),
        );
        assert_eq!(infer_ty(&table, &mut g, &e), Some(Ty::Instance(post)));
        let iff = if_(true_(), int(1), str_("s"));
        assert_eq!(
            infer_ty(&table, &mut g, &iff),
            Some(Ty::union(vec![Ty::Int, Ty::Str]))
        );
        assert_eq!(infer_ty(&table, &mut g, &not(true_())), Some(Ty::Bool));
        assert_eq!(
            infer_ty(&table, &mut g, &or(true_(), false_())),
            Some(Ty::Bool)
        );
    }

    #[test]
    fn holes_type_at_annotation() {
        let (table, post) = blog();
        let mut g = Gamma::new();
        assert_eq!(infer_ty(&table, &mut g, &hole(Ty::Int)), Some(Ty::Int));
        // A call with a singleton-class hole receiver resolves (S-App shape).
        let e = call(hole(Ty::SingletonClass(post)), "first", []);
        assert_eq!(infer_ty(&table, &mut g, &e), Some(Ty::Instance(post)));
        // Effect holes type at Obj.
        assert_eq!(
            infer_ty(&table, &mut g, &effhole(rbsyn_lang::EffectSet::star())),
            Some(Ty::Obj)
        );
    }

    #[test]
    fn hash_get_narrows_with_receiver() {
        let (table, _) = blog();
        let mut g = Gamma::new();
        let fh = Ty::FiniteHash(rbsyn_lang::FiniteHash::new(vec![
            rbsyn_lang::types::HashField {
                key: Symbol::intern("title"),
                ty: Ty::Str,
                optional: true,
            },
        ]));
        g.bind(Symbol::intern("arg2"), fh);
        let e = call(var("arg2"), "[]", [sym("title")]);
        assert_eq!(infer_ty(&table, &mut g, &e), Some(Ty::Str));
        let bad = call(var("arg2"), "[]", [sym("nope")]);
        assert_eq!(infer_ty(&table, &mut g, &bad), None);
    }
}
