//! The class table `CT` (Fig. 3): every method the synthesizer may call,
//! with its type-and-effect annotation, plus the constant set `Σ`.
//!
//! Besides dispatch-style lookup (walking the superclass chain), the table
//! supports the two enumerations at the heart of the search:
//!
//! * [`ClassTable::candidates_returning`] — methods whose return type fits a
//!   typed hole (rule S-App, Fig. 4);
//! * [`ClassTable::candidates_writing`] — methods whose *write* effect
//!   subsumes a desired read effect (rule S-EffApp, Fig. 5).
//!
//! Both resolve `self` effect regions at the enumeration class (§4) and
//! apply the configured [`EffectPrecision`] so the §5.4 ablation is a single
//! switch.

use crate::classes::ClassHierarchy;
use crate::effects::{effect_subsumed, EffectPrecision};
use crate::sig::{MethodKind, MethodSig, RetSpec};
use crate::subtype::is_subtype;
use rbsyn_lang::{ClassId, EffectPair, EffectSet, Symbol, Ty, Value};

/// Where a method is offered to the *search* (dispatch is unaffected).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnumerateAt {
    /// Only at its owner class (the default).
    OwnerOnly,
    /// At every schema-bearing subclass of the owner — how inherited
    /// ActiveRecord query methods like `exists?` become `Post.exists?`,
    /// `User.exists?`, … with `self` effects resolved per model (§4).
    ModelSubclasses,
    /// Never offered to the search (helper methods callable from specs
    /// only).
    Never,
}

/// Index of a method entry in a [`ClassTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MethodRef(pub usize);

/// A method registered in the class table.
#[derive(Clone, Debug)]
pub struct MethodEntry {
    /// Defining class.
    pub owner: ClassId,
    /// Signature with effect annotation.
    pub sig: MethodSig,
    /// Search visibility.
    pub enumerate: EnumerateAt,
}

/// A method instantiated at a concrete receiver type, ready to fill a hole.
#[derive(Clone, Debug)]
pub struct MethodCandidate {
    /// The table entry this came from.
    pub entry: MethodRef,
    /// The enumeration class (receiver class for effect resolution).
    pub class: ClassId,
    /// Method name.
    pub name: Symbol,
    /// Instance or singleton.
    pub kind: MethodKind,
    /// Type for the receiver hole.
    pub recv_ty: Ty,
    /// Parameter types (holes to insert).
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    /// Resolved, precision-adjusted read effect.
    pub read: EffectSet,
    /// Resolved, precision-adjusted write effect.
    pub write: EffectSet,
}

/// The class table: hierarchy + annotated methods + constants `Σ`.
#[derive(Clone, Debug)]
pub struct ClassTable {
    /// The class lattice.
    pub hierarchy: ClassHierarchy,
    entries: Vec<MethodEntry>,
    // Exact-owner lookup index; dispatch walks the ancestry over it.
    index: std::collections::HashMap<(ClassId, MethodKind, Symbol), usize>,
    consts: Vec<(Value, Ty)>,
    precision: EffectPrecision,
}

impl ClassTable {
    /// An empty table over the given hierarchy.
    pub fn new(hierarchy: ClassHierarchy) -> ClassTable {
        ClassTable {
            hierarchy,
            entries: Vec::new(),
            index: std::collections::HashMap::new(),
            consts: Vec::new(),
            precision: EffectPrecision::Precise,
        }
    }

    /// Registers a method. Returns its handle. A redefinition at the same
    /// owner shadows the earlier entry for dispatch.
    pub fn define_method(
        &mut self,
        owner: ClassId,
        sig: MethodSig,
        enumerate: EnumerateAt,
    ) -> MethodRef {
        let r = MethodRef(self.entries.len());
        self.index.insert((owner, sig.kind, sig.name), r.0);
        self.entries.push(MethodEntry {
            owner,
            sig,
            enumerate,
        });
        r
    }

    /// The entry behind a handle.
    pub fn entry(&self, r: MethodRef) -> &MethodEntry {
        &self.entries[r.0]
    }

    /// All entries, in definition order.
    pub fn entries(&self) -> &[MethodEntry] {
        &self.entries
    }

    /// Number of registered methods (Table 1's "# Lib Meth" counts the
    /// search-visible subset; see [`ClassTable::search_visible_count`]).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of methods the search may use.
    pub fn search_visible_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !matches!(e.enumerate, EnumerateAt::Never))
            .count()
    }

    /// Sets the effect-annotation precision for all subsequent queries
    /// (§5.4 ablation).
    pub fn set_precision(&mut self, p: EffectPrecision) {
        self.precision = p;
    }

    /// Current effect-annotation precision.
    pub fn precision(&self) -> EffectPrecision {
        self.precision
    }

    /// Adds a constant to `Σ`, deriving its type.
    pub fn add_const(&mut self, v: Value) {
        let t = self.ty_of_value(&v);
        self.consts.push((v, t));
    }

    /// The constant set `Σ`.
    pub fn consts(&self) -> &[(Value, Ty)] {
        &self.consts
    }

    /// Clears `Σ` (benchmarks configure constants per problem).
    pub fn clear_consts(&mut self) {
        self.consts.clear();
    }

    /// Most specific type of a literal value (symbol constants get
    /// singleton `SymLit` types so they can fill key holes).
    pub fn ty_of_value(&self, v: &Value) -> Ty {
        match v {
            Value::Nil => Ty::Nil,
            Value::Bool(_) => Ty::Bool,
            Value::Int(_) => Ty::Int,
            Value::Str(_) => Ty::Str,
            Value::Sym(s) => Ty::SymLit(*s),
            Value::Class(c) => Ty::SingletonClass(*c),
            Value::Hash(_) => Ty::Instance(self.hierarchy.hash()),
            Value::Array(_) => Ty::Instance(self.hierarchy.array()),
            Value::Obj(_) => Ty::Obj,
        }
    }

    /// A content fingerprint of everything the *search* observes through
    /// this table: the class lattice (names, parents, schemas), every
    /// method entry (owner, signature, effects, search visibility), the
    /// constant set `Σ`, and the configured [`EffectPrecision`].
    ///
    /// Two tables with equal fingerprints answer every enumeration and
    /// typing query identically. The frontend's rebuild and round-trip
    /// tests (`crates/front/src/lib.rs`, `crates/front/tests/roundtrip.rs`)
    /// compare fingerprints to show that two independently built
    /// environments are the same. 128 bits keep accidental collisions out
    /// of reach.
    ///
    /// The fingerprint hashes the deterministic `Vec`-backed parts only
    /// (never the `HashMap` dispatch index, whose iteration order is
    /// unstable), so it is stable across instances within a process.
    pub fn fingerprint(&self) -> u128 {
        let mut content = String::new();
        {
            use std::fmt::Write;
            let _ = write!(content, "{:?};{:?};", self.hierarchy, self.precision);
            for e in &self.entries {
                let _ = write!(content, "{e:?};");
            }
            for c in &self.consts {
                let _ = write!(content, "{c:?};");
            }
        }
        rbsyn_lang::hash128("rbsyn.table", &content)
    }

    /// Dispatch-style lookup: the nearest definition of `name` along the
    /// superclass chain of `class`. Returns the entry and the class at
    /// which dispatch happened (for `self` effect resolution).
    pub fn lookup(
        &self,
        class: ClassId,
        kind: MethodKind,
        name: Symbol,
    ) -> Option<(MethodRef, &MethodEntry)> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(&i) = self.index.get(&(c, kind, name)) {
                return Some((MethodRef(i), &self.entries[i]));
            }
            cur = self.hierarchy.parent(c);
        }
        None
    }

    /// The resolved, precision-adjusted effect of calling entry `r` with a
    /// receiver of class `at`.
    pub fn effect_of(&self, r: MethodRef, at: ClassId) -> EffectPair {
        let e = self.entries[r.0].sig.effect_at(at);
        EffectPair::new(
            self.precision.apply(&e.read),
            self.precision.apply(&e.write),
        )
    }

    fn enumeration_classes(&self, e: &MethodEntry) -> Vec<ClassId> {
        match e.enumerate {
            EnumerateAt::Never => Vec::new(),
            EnumerateAt::OwnerOnly => vec![e.owner],
            EnumerateAt::ModelSubclasses => self
                .hierarchy
                .iter()
                .filter(|c| {
                    self.hierarchy.schema(*c).is_some() && self.hierarchy.is_subclass(*c, e.owner)
                })
                .collect(),
        }
    }

    /// Instantiates every search-visible method at every enumeration class,
    /// resolving comp types (against the class for model queries, against
    /// each of `seeds` for receiver-dependent comp types like `Hash#[]`).
    pub fn enumerate_candidates(&self, seeds: &[Ty]) -> Vec<MethodCandidate> {
        let mut out = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            for class in self.enumeration_classes(e) {
                let recv_tys: Vec<Ty> = match (&e.sig.ret, e.sig.kind) {
                    (
                        RetSpec::Comp(
                            crate::sig::CompType::HashGet | crate::sig::CompType::ArrayElem,
                        ),
                        MethodKind::Instance,
                    ) => seeds.to_vec(),
                    (_, MethodKind::Singleton) => vec![Ty::SingletonClass(class)],
                    (_, MethodKind::Instance) => vec![self.hierarchy.instance_ty(class)],
                };
                for recv_ty in recv_tys {
                    let Some(resolved) = e.sig.resolve(&self.hierarchy, &recv_ty) else {
                        continue;
                    };
                    let eff = self.effect_of(MethodRef(i), class);
                    out.push(MethodCandidate {
                        entry: MethodRef(i),
                        class,
                        name: e.sig.name,
                        kind: e.sig.kind,
                        recv_ty: resolved.recv,
                        params: resolved.params,
                        ret: resolved.ret,
                        read: eff.read,
                        write: eff.write,
                    });
                }
            }
        }
        out
    }

    /// S-App enumeration: candidates whose return type is ≤ `goal`.
    pub fn candidates_returning(&self, goal: &Ty, seeds: &[Ty]) -> Vec<MethodCandidate> {
        self.enumerate_candidates(seeds)
            .into_iter()
            .filter(|c| is_subtype(&self.hierarchy, &c.ret, goal))
            .collect()
    }

    /// S-EffApp enumeration: candidates whose write effect subsumes `er`,
    /// ordered by annotation precision — region writers before class-level
    /// writers before `*` writers. This reproduces the implementation
    /// behaviour the paper observes in §5.4 ("RbSyn first tries all methods
    /// with precise annotations, only afterward trying methods with class
    /// annotations").
    pub fn candidates_writing(&self, er: &EffectSet, seeds: &[Ty]) -> Vec<MethodCandidate> {
        fn coarseness(e: &EffectSet) -> u8 {
            if e.is_star() {
                2
            } else if e
                .atoms()
                .iter()
                .any(|a| matches!(a, rbsyn_lang::Effect::ClassStar(_)))
            {
                1
            } else {
                0
            }
        }
        let mut out: Vec<MethodCandidate> = self
            .enumerate_candidates(seeds)
            .into_iter()
            .filter(|c| !c.write.is_pure() && effect_subsumed(&self.hierarchy, er, &c.write))
            .collect();
        out.sort_by_key(|c| coarseness(&c.write));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::Schema;
    use crate::sig::{CompType, QueryRet};
    use rbsyn_lang::Effect;

    fn sig_static(
        name: &str,
        kind: MethodKind,
        params: Vec<Ty>,
        ret: Ty,
        effect: EffectPair,
    ) -> MethodSig {
        MethodSig {
            name: Symbol::intern(name),
            kind,
            ret: RetSpec::Static { params, ret },
            effect,
        }
    }

    fn blog_table() -> (ClassTable, ClassId, ClassId) {
        let mut h = ClassHierarchy::new();
        let base = h.define("ActiveRecord::Base", None);
        let post = h.define("Post", Some(base));
        let user = h.define("User", Some(base));
        h.set_schema(post, Schema::new(vec![(Symbol::intern("title"), Ty::Str)]));
        h.set_schema(user, Schema::new(vec![(Symbol::intern("name"), Ty::Str)]));
        let mut ct = ClassTable::new(h);
        // Inherited query with self effects.
        ct.define_method(
            base,
            MethodSig {
                name: Symbol::intern("exists?"),
                kind: MethodKind::Singleton,
                ret: RetSpec::Comp(CompType::ModelQuery(QueryRet::Bool)),
                effect: EffectPair::new(EffectSet::single(Effect::SelfStar), EffectSet::pure_()),
            },
            EnumerateAt::ModelSubclasses,
        );
        // Accessor with a precise region write.
        ct.define_method(
            post,
            sig_static(
                "title=",
                MethodKind::Instance,
                vec![Ty::Str],
                Ty::Str,
                EffectPair::new(
                    EffectSet::pure_(),
                    EffectSet::single(Effect::Region(post, Symbol::intern("title"))),
                ),
            ),
            EnumerateAt::OwnerOnly,
        );
        (ct, post, user)
    }

    #[test]
    fn model_subclass_enumeration_resolves_self() {
        let (ct, post, user) = blog_table();
        let cands = ct.candidates_returning(&Ty::Bool, &[]);
        let classes: Vec<ClassId> = cands.iter().map(|c| c.class).collect();
        assert!(classes.contains(&post) && classes.contains(&user));
        let post_c = cands.iter().find(|c| c.class == post).unwrap();
        assert_eq!(post_c.read, EffectSet::single(Effect::ClassStar(post)));
        assert_eq!(post_c.recv_ty, Ty::SingletonClass(post));
    }

    #[test]
    fn writing_candidates_match_regions() {
        let (ct, post, _) = blog_table();
        let want = EffectSet::single(Effect::Region(post, Symbol::intern("title")));
        let cands = ct.candidates_writing(&want, &[]);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].name.as_str(), "title=");
        // A different region finds nothing.
        let other = EffectSet::single(Effect::Region(post, Symbol::intern("slug")));
        assert!(ct.candidates_writing(&other, &[]).is_empty());
    }

    #[test]
    fn precision_coarsening_changes_matching() {
        let (mut ct, post, user) = blog_table();
        ct.set_precision(EffectPrecision::Purity);
        // Under purity, the title= write becomes *, so any impure read is
        // matched by it — including a User region.
        let want = EffectSet::single(Effect::Region(user, Symbol::intern("name")));
        let want = EffectPrecision::Purity.apply(&want);
        let cands = ct.candidates_writing(&want, &[]);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].name.as_str(), "title=");
        let _ = post;
    }

    #[test]
    fn dispatch_walks_ancestry() {
        let (ct, post, _) = blog_table();
        let (r, e) = ct
            .lookup(post, MethodKind::Singleton, Symbol::intern("exists?"))
            .expect("inherited lookup");
        assert_eq!(e.sig.name.as_str(), "exists?");
        let eff = ct.effect_of(r, post);
        assert_eq!(eff.read, EffectSet::single(Effect::ClassStar(post)));
        assert!(ct
            .lookup(post, MethodKind::Singleton, Symbol::intern("nope"))
            .is_none());
    }

    #[test]
    fn consts_get_types() {
        let (mut ct, post, _) = blog_table();
        ct.add_const(Value::Nil);
        ct.add_const(Value::Class(post));
        ct.add_const(Value::sym("title"));
        let tys: Vec<&Ty> = ct.consts().iter().map(|(_, t)| t).collect();
        assert_eq!(tys[0], &Ty::Nil);
        assert_eq!(tys[1], &Ty::SingletonClass(post));
        assert_eq!(tys[2], &Ty::SymLit(Symbol::intern("title")));
        assert_eq!(ct.search_visible_count(), 2);
    }

    #[test]
    fn fingerprint_tracks_consts_and_precision() {
        let (ct, post, _) = blog_table();
        let (ct2, _, _) = blog_table();
        assert_eq!(
            ct.fingerprint(),
            ct2.fingerprint(),
            "independently built identical tables share a fingerprint"
        );
        let mut with_const = ct.clone();
        with_const.add_const(Value::Class(post));
        assert_ne!(ct.fingerprint(), with_const.fingerprint());
        let seeded = with_const.fingerprint();
        with_const.clear_consts();
        assert_ne!(
            seeded,
            with_const.fingerprint(),
            "clearing a non-empty Σ changes the fingerprint"
        );
        assert_eq!(ct.fingerprint(), with_const.fingerprint());
        let mut coarse = ct.clone();
        coarse.set_precision(EffectPrecision::Purity);
        assert_ne!(
            ct.fingerprint(),
            coarse.fingerprint(),
            "precision must separate fingerprints"
        );
    }

    #[test]
    fn hash_get_uses_seeds() {
        let (mut ct, _, _) = blog_table();
        let hash_class = ct.hierarchy.hash();
        ct.define_method(
            hash_class,
            MethodSig {
                name: Symbol::intern("[]"),
                kind: MethodKind::Instance,
                ret: RetSpec::Comp(CompType::HashGet),
                effect: EffectPair::pure_(),
            },
            EnumerateAt::OwnerOnly,
        );
        let seed = Ty::FiniteHash(rbsyn_lang::FiniteHash::new(vec![
            rbsyn_lang::types::HashField {
                key: Symbol::intern("title"),
                ty: Ty::Str,
                optional: true,
            },
        ]));
        let cands = ct.candidates_returning(&Ty::Str, std::slice::from_ref(&seed));
        let get = cands.iter().find(|c| c.name.as_str() == "[]").unwrap();
        assert_eq!(get.recv_ty, seed);
        assert_eq!(get.params[0], Ty::SymLit(Symbol::intern("title")));
        // Without seeds, Hash#[] is not offered.
        assert!(ct
            .candidates_returning(&Ty::Str, &[])
            .iter()
            .all(|c| c.name.as_str() != "[]"));
    }
}
