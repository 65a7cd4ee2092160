//! One-step candidate expansion: the S-rules.
//!
//! * Typed holes `□:τ` are filled by constants (S-Const), variables
//!   (S-Var), method-call templates (S-App), hash literals over schema key
//!   subsets, and symbol literals for `SymLit` hole types (§2.1's
//!   `arg2[:title]` key holes).
//! * Effect holes `◇:ε` are filled by `nil` (S-EffNil) or by a call to a
//!   method whose write effect subsumes `ε`, preceded by a fresh effect
//!   hole for that method's own read effect when impure (S-EffApp).
//!
//! Expansion always rewrites the *leftmost* hole, mirroring the paper's
//! deterministic implementation of the non-deterministic rules.

use crate::infer::Gamma;
use crate::options::Options;
use rbsyn_lang::{EffectSet, Expr, Symbol, Ty, Value};
use rbsyn_ty::{is_subtype, ClassTable};
use std::sync::Arc;

/// Source of memoized S-App/S-EffApp call-template lists.
///
/// Template lists are pure functions of the class table, the goal
/// type/effect and the seed set, so *where* they are memoized is a free
/// choice: the shared [`crate::cache::CacheHandle`] implements this for
/// normal searches (templates shared across specs, merge attempts and
/// batch jobs), while the guard pool, which asks for each goal's list once
/// and keeps the result as hash-consed nodes, computes it unmemoized and
/// never takes a lock.
pub trait TemplateStore {
    /// The template list for `key`, computing it via `compute` on a miss.
    fn templates(&self, key: String, compute: &mut dyn FnMut() -> Vec<Expr>) -> Arc<Vec<Expr>>;
}

/// One-step expander over a class table.
///
/// Candidate enumeration (instantiating every library method at every
/// model class, S-App / S-EffApp) is the hot path of the search; the
/// resulting call templates are memoized through the [`TemplateStore`] per
/// goal type / effect and seed set, which is sound because the template
/// list is a pure function of the class table — the shared store's
/// environment token fingerprints the table, so templates are shared
/// across every search over the same library (other specs, other batch
/// jobs) and never leak between different configurations.
pub struct Expander<'a> {
    /// Class table (with `Σ` configured).
    pub table: &'a ClassTable,
    /// Search options (guidance switches, hash-literal arity).
    pub opts: &'a Options,
    search: &'a dyn TemplateStore,
}

impl<'a> Expander<'a> {
    /// Builds an expander memoizing through `search`.
    pub fn new(
        table: &'a ClassTable,
        opts: &'a Options,
        search: &'a dyn TemplateStore,
    ) -> Expander<'a> {
        Expander {
            table,
            opts,
            search,
        }
    }

    fn seeds_key(seeds: &[Ty]) -> String {
        seeds
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(";")
    }

    /// All one-step rewrites of the leftmost hole of `e`, or `None` when
    /// `e` is hole-free (evaluable).
    pub fn expand_first(&self, e: &Expr, gamma: &mut Gamma) -> Option<Vec<Expr>> {
        match e {
            Expr::Hole(t) => Some(self.fill_typed(t, gamma)),
            Expr::EffHole(eps) => Some(self.fill_effect(eps, gamma)),
            Expr::Lit(_) | Expr::Var(_) => None,
            Expr::Seq(es) => {
                for (i, child) in es.iter().enumerate() {
                    if let Some(subs) = self.expand_first(child, gamma) {
                        return Some(
                            subs.into_iter()
                                .map(|s| {
                                    let mut es2 = es.clone();
                                    es2[i] = s;
                                    simplify(Expr::Seq(es2))
                                })
                                .collect(),
                        );
                    }
                }
                None
            }
            Expr::Call { recv, meth, args } => {
                if let Some(subs) = self.expand_first(recv, gamma) {
                    return Some(
                        subs.into_iter()
                            .map(|s| Expr::Call {
                                recv: Box::new(s),
                                meth: *meth,
                                args: args.clone(),
                            })
                            .collect(),
                    );
                }
                for (i, a) in args.iter().enumerate() {
                    if let Some(subs) = self.expand_first(a, gamma) {
                        return Some(
                            subs.into_iter()
                                .map(|s| {
                                    let mut args2 = args.clone();
                                    args2[i] = s;
                                    Expr::Call {
                                        recv: recv.clone(),
                                        meth: *meth,
                                        args: args2,
                                    }
                                })
                                .collect(),
                        );
                    }
                }
                None
            }
            Expr::If { cond, then, els } => {
                if let Some(subs) = self.expand_first(cond, gamma) {
                    return Some(
                        subs.into_iter()
                            .map(|s| Expr::If {
                                cond: Box::new(s),
                                then: then.clone(),
                                els: els.clone(),
                            })
                            .collect(),
                    );
                }
                if let Some(subs) = self.expand_first(then, gamma) {
                    return Some(
                        subs.into_iter()
                            .map(|s| Expr::If {
                                cond: cond.clone(),
                                then: Box::new(s),
                                els: els.clone(),
                            })
                            .collect(),
                    );
                }
                if let Some(subs) = self.expand_first(els, gamma) {
                    return Some(
                        subs.into_iter()
                            .map(|s| Expr::If {
                                cond: cond.clone(),
                                then: then.clone(),
                                els: Box::new(s),
                            })
                            .collect(),
                    );
                }
                None
            }
            Expr::Let { var, val, body } => {
                if let Some(subs) = self.expand_first(val, gamma) {
                    return Some(
                        subs.into_iter()
                            .map(|s| Expr::Let {
                                var: *var,
                                val: Box::new(s),
                                body: body.clone(),
                            })
                            .collect(),
                    );
                }
                // Bind the let variable at (possibly holed) value type so
                // S-Var can offer it inside the body.
                let vt = crate::infer::infer_ty(self.table, gamma, val).unwrap_or(Ty::Obj);
                let m = gamma.mark();
                gamma.bind(*var, vt);
                let out = self.expand_first(body, gamma).map(|subs| {
                    subs.into_iter()
                        .map(|s| Expr::Let {
                            var: *var,
                            val: val.clone(),
                            body: Box::new(s),
                        })
                        .collect()
                });
                gamma.release(m);
                out
            }
            Expr::HashLit(entries) => {
                for (i, (_, v)) in entries.iter().enumerate() {
                    if let Some(subs) = self.expand_first(v, gamma) {
                        return Some(
                            subs.into_iter()
                                .map(|s| {
                                    let mut e2 = entries.clone();
                                    e2[i].1 = s;
                                    Expr::HashLit(e2)
                                })
                                .collect(),
                        );
                    }
                }
                None
            }
            Expr::Not(b) => self
                .expand_first(b, gamma)
                .map(|subs| subs.into_iter().map(|s| Expr::Not(Box::new(s))).collect()),
            Expr::Or(x, y) => {
                if let Some(subs) = self.expand_first(x, gamma) {
                    return Some(
                        subs.into_iter()
                            .map(|s| Expr::Or(Box::new(s), y.clone()))
                            .collect(),
                    );
                }
                self.expand_first(y, gamma).map(|subs| {
                    subs.into_iter()
                        .map(|s| Expr::Or(x.clone(), Box::new(s)))
                        .collect()
                })
            }
        }
    }

    /// Receiver-type seeds for comp-typed instance methods (`Hash#[]`,
    /// `Array#first`): every finite-hash- or array-typed term in scope.
    fn seeds(&self, gamma: &Gamma) -> Vec<Ty> {
        let mut out: Vec<Ty> = Vec::new();
        for (_, t) in gamma.bindings() {
            if matches!(t, Ty::FiniteHash(_) | Ty::Array(_)) && !out.contains(t) {
                out.push(t.clone());
            }
        }
        out
    }

    /// Fillings of a typed hole `□:τ` (S-Const, S-Var, symbol literals,
    /// hash literals, S-App).
    fn fill_typed(&self, goal: &Ty, gamma: &Gamma) -> Vec<Expr> {
        let typed = self.opts.guidance.types;
        let h = &self.table.hierarchy;
        let mut out: Vec<Expr> = Vec::new();

        // S-Const: constants from Σ at subtypes of the goal.
        for (v, vt) in self.table.consts() {
            if !typed || is_subtype(h, vt, goal) {
                out.push(Expr::Lit(v.clone()));
            }
        }

        // Symbol literals for SymLit goals (hash-key holes). These are
        // implicit constants derived from the goal type itself, so they
        // exist even when Σ has no symbols.
        if typed {
            for s in sym_literals(goal) {
                let lit = Expr::Lit(Value::Sym(s));
                if !out.contains(&lit) {
                    out.push(lit);
                }
            }
        }

        // S-Var: variables from Γ.
        for (x, xt) in gamma.bindings() {
            if !typed || is_subtype(h, xt, goal) {
                let v = Expr::Var(*x);
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }

        // Hash literals over key subsets of finite-hash goals.
        if typed {
            for fh in finite_hash_goals(goal) {
                self.hash_literals(fh, &mut out);
            }
        }

        // S-App: method-call templates with the right return type
        // (memoized per goal/seed set).
        let seeds = self.seeds(gamma);
        let key = format!("ret|{goal}|{}|{typed}", Self::seeds_key(&seeds));
        let templates = self.search.templates(key, &mut || {
            let cands = if typed {
                self.table.candidates_returning(goal, &seeds)
            } else {
                self.table.enumerate_candidates(&seeds)
            };
            cands
                .into_iter()
                .map(|c| Expr::Call {
                    recv: Box::new(Expr::Hole(c.recv_ty)),
                    meth: c.name,
                    args: c.params.into_iter().map(Expr::Hole).collect(),
                })
                .collect()
        });
        out.extend(templates.iter().cloned());
        out
    }

    /// All non-empty key subsets (up to `max_hash_keys`) of a finite hash
    /// type, in deterministic order: singletons first, then pairs, etc.
    fn hash_literals(&self, fh: &rbsyn_lang::FiniteHash, out: &mut Vec<Expr>) {
        let n = fh.fields.len();
        let max_k = self.opts.max_hash_keys.min(n);
        let mut idxs: Vec<usize> = (0..n).collect();
        // Deterministic: schema order.
        idxs.sort_by_key(|i| fh.fields[*i].key);
        for k in 1..=max_k {
            subsets(&idxs, k, &mut |subset| {
                let entries: Vec<(Symbol, Expr)> = subset
                    .iter()
                    .map(|&i| (fh.fields[i].key, Expr::Hole(fh.fields[i].ty.clone())))
                    .collect();
                out.push(Expr::HashLit(entries));
            });
        }
    }

    /// Fillings of an effect hole `◇:ε` (S-EffNil, S-EffApp), memoized per
    /// effect/seed set.
    fn fill_effect(&self, eps: &EffectSet, gamma: &Gamma) -> Vec<Expr> {
        let seeds = self.seeds(gamma);
        let key = format!("eff|{eps}|{}", Self::seeds_key(&seeds));
        let templates = self.search.templates(key, &mut || {
            let mut v = vec![Expr::Lit(Value::Nil)]; // S-EffNil
            for c in self.table.candidates_writing(eps, &seeds) {
                let callee = Expr::Call {
                    recv: Box::new(Expr::Hole(c.recv_ty)),
                    meth: c.name,
                    args: c.params.into_iter().map(Expr::Hole).collect(),
                };
                // S-EffApp: the method's own read effect may need
                // fixing first.
                if c.read.is_pure() {
                    v.push(callee);
                } else {
                    v.push(Expr::Seq(vec![Expr::EffHole(c.read), callee]));
                }
            }
            v
        });
        templates.iter().cloned().collect()
    }
}

/// Symbol literals admissible at a hole type (a `SymLit` or a union of
/// them).
fn sym_literals(t: &Ty) -> Vec<Symbol> {
    match t {
        Ty::SymLit(s) => vec![*s],
        Ty::Union(parts) => parts.iter().flat_map(sym_literals).collect(),
        _ => Vec::new(),
    }
}

/// Finite-hash components of a hole type.
fn finite_hash_goals(t: &Ty) -> Vec<&rbsyn_lang::FiniteHash> {
    match t {
        Ty::FiniteHash(fh) => vec![fh],
        Ty::Union(parts) => parts.iter().flat_map(finite_hash_goals).collect(),
        _ => Vec::new(),
    }
}

/// Enumerates size-`k` subsets of `idxs` in lexicographic order.
fn subsets(idxs: &[usize], k: usize, f: &mut impl FnMut(&[usize])) {
    fn go(
        idxs: &[usize],
        k: usize,
        start: usize,
        acc: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize]),
    ) {
        if acc.len() == k {
            f(acc);
            return;
        }
        for i in start..idxs.len() {
            acc.push(idxs[i]);
            go(idxs, k, i + 1, acc, f);
            acc.pop();
        }
    }
    go(idxs, k, 0, &mut Vec::new(), f);
}

/// Canonicalizes sequences: flattens nested `Seq`s, drops non-final `nil`
/// statements (the residue of S-EffNil), and unwraps singleton sequences.
pub fn simplify(e: Expr) -> Expr {
    match e {
        Expr::Seq(es) => {
            let mut flat: Vec<Expr> = Vec::new();
            for item in es {
                match simplify(item) {
                    Expr::Seq(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            let n = flat.len();
            let mut kept: Vec<Expr> = flat
                .into_iter()
                .enumerate()
                .filter(|(i, e)| *i + 1 == n || !matches!(e, Expr::Lit(Value::Nil)))
                .map(|(_, e)| e)
                .collect();
            match kept.len() {
                0 => Expr::Lit(Value::Nil),
                1 => kept.pop().expect("len checked"),
                _ => Expr::Seq(kept),
            }
        }
        Expr::Let { var, val, body } => Expr::Let {
            var,
            val: Box::new(simplify(*val)),
            body: Box::new(simplify(*body)),
        },
        Expr::Call { recv, meth, args } => Expr::Call {
            recv: Box::new(simplify(*recv)),
            meth,
            args: args.into_iter().map(simplify).collect(),
        },
        Expr::If { cond, then, els } => Expr::If {
            cond: Box::new(simplify(*cond)),
            then: Box::new(simplify(*then)),
            els: Box::new(simplify(*els)),
        },
        Expr::HashLit(entries) => {
            Expr::HashLit(entries.into_iter().map(|(k, v)| (k, simplify(v))).collect())
        }
        Expr::Not(b) => Expr::Not(Box::new(simplify(*b))),
        Expr::Or(a, b) => Expr::Or(Box::new(simplify(*a)), Box::new(simplify(*b))),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheHandle;
    use rbsyn_lang::builder::*;
    use rbsyn_stdlib::EnvBuilder;

    fn blog() -> (ClassTable, rbsyn_lang::ClassId) {
        let mut b = EnvBuilder::with_stdlib();
        let post = b.define_model("Post", &[("author", Ty::Str), ("title", Ty::Str)]);
        b.add_const(Value::Class(post));
        let env = b.finish();
        (env.table, post)
    }

    #[test]
    fn evaluable_expressions_do_not_expand() {
        let (table, _) = blog();
        let opts = Options::default();
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        assert!(ex.expand_first(&int(1), &mut Gamma::new()).is_none());
    }

    #[test]
    fn typed_holes_offer_consts_vars_and_calls() {
        let (table, post) = blog();
        let opts = Options::default();
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        let mut g = Gamma::new();
        g.bind(Symbol::intern("arg0"), Ty::Instance(post));
        let fills = ex.expand_first(&hole(Ty::Instance(post)), &mut g).unwrap();
        let keys: Vec<String> = fills.iter().map(|e| e.compact()).collect();
        assert!(keys.contains(&"arg0".to_owned()), "S-Var: {keys:?}");
        assert!(
            keys.iter().any(|k| k.contains(".first")),
            "S-App templates: {keys:?}"
        );
        // The singleton receiver hole is typed Class<Post>.
        assert!(keys.iter().any(|k| k.contains("Class<Post>")));
    }

    #[test]
    fn singleton_class_holes_accept_the_constant() {
        let (table, post) = blog();
        let opts = Options::default();
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        let fills = ex
            .expand_first(&hole(Ty::SingletonClass(post)), &mut Gamma::new())
            .unwrap();
        assert!(fills
            .iter()
            .any(|e| matches!(e, Expr::Lit(Value::Class(c)) if *c == post)));
    }

    #[test]
    fn hash_holes_expand_to_key_subsets() {
        let (table, post) = blog();
        let opts = Options::default();
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        let schema = table.hierarchy.schema(post).unwrap();
        let fh = Ty::FiniteHash(rbsyn_lang::FiniteHash::new(
            schema
                .columns
                .iter()
                .map(|(k, t)| rbsyn_lang::types::HashField {
                    key: *k,
                    ty: t.clone(),
                    optional: true,
                })
                .collect(),
        ));
        let fills = ex.expand_first(&hole(fh), &mut Gamma::new()).unwrap();
        let hashes: Vec<&Expr> = fills
            .iter()
            .filter(|e| matches!(e, Expr::HashLit(_)))
            .collect();
        // 3 columns (id, author, title): 3 singletons + 3 pairs.
        assert_eq!(hashes.len(), 6, "{fills:?}");
    }

    #[test]
    fn symlit_holes_expand_to_literals() {
        let (table, _) = blog();
        let opts = Options::default();
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        let t = Ty::union(vec![
            Ty::SymLit(Symbol::intern("author")),
            Ty::SymLit(Symbol::intern("title")),
        ]);
        let fills = ex.expand_first(&hole(t), &mut Gamma::new()).unwrap();
        let syms: Vec<&Expr> = fills
            .iter()
            .filter(|e| matches!(e, Expr::Lit(Value::Sym(_))))
            .collect();
        assert_eq!(syms.len(), 2);
    }

    #[test]
    fn effect_holes_offer_nil_and_writers() {
        let (table, post) = blog();
        let opts = Options::default();
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        let want = rbsyn_stdlib::eff::region(post, "title");
        let fills = ex.expand_first(&effhole(want), &mut Gamma::new()).unwrap();
        let keys: Vec<String> = fills.iter().map(|e| e.compact()).collect();
        assert_eq!(keys[0], "nil", "S-EffNil first");
        assert!(keys.iter().any(|k| k.contains("title=")), "{keys:?}");
        // Precise matching: author= does not write Post.title.
        assert!(!keys.iter().any(|k| k.contains("author=")));
        // create/update! (self.* writes) subsume the region too.
        assert!(keys
            .iter()
            .any(|k| k.contains("update!") || k.contains("create")));
    }

    #[test]
    fn effapp_prepends_read_effect_holes() {
        let (table, post) = blog();
        let opts = Options::default();
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        let want = rbsyn_stdlib::eff::class_star(post);
        let fills = ex.expand_first(&effhole(want), &mut Gamma::new()).unwrap();
        // `create` reads self.* too, so its template is ◇:Post.*; call.
        let with_pre = fills
            .iter()
            .any(|e| matches!(e, Expr::Seq(es) if matches!(es[0], Expr::EffHole(_))));
        assert!(with_pre, "{fills:?}");
    }

    #[test]
    fn leftmost_hole_is_expanded_first() {
        let (table, post) = blog();
        let opts = Options::default();
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        let e = call(hole(Ty::SingletonClass(post)), "where", [hole(Ty::Obj)]);
        let fills = ex.expand_first(&e, &mut Gamma::new()).unwrap();
        // Receiver (leftmost) was expanded: the argument hole survives.
        assert!(fills.iter().all(|f| f.compact().contains("(□:Obj)")));
    }

    #[test]
    fn let_bindings_are_visible_in_bodies() {
        let (table, post) = blog();
        let opts = Options::default();
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        let e = let_("t0", call(cls(post), "first", []), hole(Ty::Instance(post)));
        let fills = ex.expand_first(&e, &mut Gamma::new()).unwrap();
        assert!(
            fills.iter().any(|f| f.compact().ends_with("; t0")),
            "t0 : Post must be offered for the body hole"
        );
    }

    #[test]
    fn untyped_mode_ignores_goal_types() {
        let (table, _) = blog();
        let opts = Options::with_guidance(crate::Guidance::effects_only());
        let search = CacheHandle::private();
        let ex = Expander::new(&table, &opts, &search);
        let mut g = Gamma::new();
        g.bind(Symbol::intern("x"), Ty::Str);
        let fills = ex.expand_first(&hole(Ty::Int), &mut g).unwrap();
        // The Str-typed variable is offered even though the hole wants Int.
        assert!(fills.iter().any(|e| e.compact() == "x"));
        // And the candidate pool is the whole library.
        assert!(fills.len() > 50);
    }

    #[test]
    fn simplify_cleans_sequences() {
        let e = Expr::Seq(vec![nil(), Expr::Seq(vec![int(1), nil()]), int(2)]);
        assert_eq!(simplify(e).compact(), "1; 2");
        let single = Expr::Seq(vec![nil(), int(3)]);
        assert_eq!(simplify(single).compact(), "3");
        let all_nil = Expr::Seq(vec![nil(), nil()]);
        assert_eq!(simplify(all_nil).compact(), "nil");
    }
}
