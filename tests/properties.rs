//! Property-based tests over the core data structures and invariants:
//! subtyping is a preorder with `Nil` bottom / `Obj` top, effect
//! subsumption is a preorder compatible with union, the merge's
//! implication check agrees with truth tables, and metrics/printing behave
//! structurally.

use proptest::prelude::*;
use rbsyn::core::merge::implies;
use rbsyn::lang::builder::*;
use rbsyn::lang::metrics::{node_count, path_count};
use rbsyn::lang::{Effect, EffectSet, Expr, Symbol, Ty, Value};
use rbsyn::ty::{effect_subsumed, is_subtype, ClassHierarchy};

fn hierarchy() -> (ClassHierarchy, Vec<rbsyn::lang::ClassId>) {
    let mut h = ClassHierarchy::new();
    let base = h.define("Base", None);
    let mid = h.define("Mid", Some(base));
    let leaf = h.define("Leaf", Some(mid));
    let other = h.define("Other", None);
    (h, vec![base, mid, leaf, other])
}

fn arb_ty() -> impl Strategy<Value = Ty> {
    let leaf = prop_oneof![
        Just(Ty::Nil),
        Just(Ty::Bool),
        Just(Ty::Int),
        Just(Ty::Str),
        Just(Ty::Sym),
        Just(Ty::Obj),
        (0usize..4).prop_map(|i| {
            let (_, cs) = hierarchy();
            Ty::Instance(cs[i])
        }),
        (0usize..4).prop_map(|i| {
            let (_, cs) = hierarchy();
            Ty::SingletonClass(cs[i])
        }),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|t| Ty::Array(Box::new(t))),
            prop::collection::vec(inner, 1..3).prop_map(Ty::union),
        ]
    })
}

fn arb_effect() -> impl Strategy<Value = EffectSet> {
    let atom = prop_oneof![
        Just(Effect::Star),
        (0usize..4, 0u8..3).prop_map(|(i, r)| {
            let (_, cs) = hierarchy();
            Effect::Region(cs[i], Symbol::intern(&format!("r{r}")))
        }),
        (0usize..4).prop_map(|i| {
            let (_, cs) = hierarchy();
            Effect::ClassStar(cs[i])
        }),
    ];
    prop::collection::vec(atom, 0..4).prop_map(EffectSet::from_atoms)
}

/// The atoms of [`arb_skeleton`]; atom `i` is bit `i` of an assignment.
const ATOMS: [&str; 4] = ["a", "b", "c", "d"];

/// A branch condition's boolean skeleton: `!`/`||` over the atoms `a`–`d`
/// and the `true`/`false` literals.
fn arb_skeleton() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(true_()),
        Just(false_()),
        (0usize..4).prop_map(|i| var(ATOMS[i])),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(not),
            (inner.clone(), inner).prop_map(|(a, b)| or(a, b)),
        ]
    })
}

/// The value of an [`arb_skeleton`] condition under the assignment `bits`.
fn truth(e: &Expr, bits: u32) -> bool {
    match e {
        Expr::Lit(Value::Bool(b)) => *b,
        Expr::Not(x) => !truth(x, bits),
        Expr::Or(x, y) => truth(x, bits) || truth(y, bits),
        atom => {
            let name = atom.compact();
            let i = ATOMS.iter().position(|a| *a == name).expect("an atom a–d");
            bits & (1 << i) != 0
        }
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(nil()),
        Just(true_()),
        any::<i64>().prop_map(int),
        "[a-z]{1,6}".prop_map(|s| var(&s)),
        "[a-z]{1,6}".prop_map(|s| str_(&s)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| call(a, "m", [b])),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| if_(c, t, e)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| let_("t0", a, b)),
            prop::collection::vec(inner.clone(), 1..3).prop_map(seq),
            inner.clone().prop_map(not),
            (inner.clone(), inner).prop_map(|(a, b)| or(a, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn subtyping_is_reflexive(t in arb_ty()) {
        let (h, _) = hierarchy();
        prop_assert!(is_subtype(&h, &t, &t));
    }

    #[test]
    fn nil_bottom_obj_top(t in arb_ty()) {
        let (h, _) = hierarchy();
        prop_assert!(is_subtype(&h, &Ty::Nil, &t));
        prop_assert!(is_subtype(&h, &t, &Ty::Obj));
    }

    #[test]
    fn subtyping_is_transitive(a in arb_ty(), b in arb_ty(), c in arb_ty()) {
        let (h, _) = hierarchy();
        if is_subtype(&h, &a, &b) && is_subtype(&h, &b, &c) {
            prop_assert!(is_subtype(&h, &a, &c), "{a} ≤ {b} ≤ {c}");
        }
    }

    #[test]
    fn union_is_an_upper_bound(a in arb_ty(), b in arb_ty()) {
        let (h, _) = hierarchy();
        let u = Ty::union(vec![a.clone(), b.clone()]);
        prop_assert!(is_subtype(&h, &a, &u));
        prop_assert!(is_subtype(&h, &b, &u));
    }

    #[test]
    fn effect_subsumption_is_reflexive_and_bounded(e in arb_effect()) {
        let (h, _) = hierarchy();
        prop_assert!(effect_subsumed(&h, &e, &e));
        prop_assert!(effect_subsumed(&h, &EffectSet::pure_(), &e));
        prop_assert!(effect_subsumed(&h, &e, &EffectSet::star()));
    }

    #[test]
    fn effect_union_is_an_upper_bound(a in arb_effect(), b in arb_effect()) {
        let (h, _) = hierarchy();
        let u = a.union(&b);
        prop_assert!(effect_subsumed(&h, &a, &u));
        prop_assert!(effect_subsumed(&h, &b, &u));
    }

    #[test]
    fn effect_subsumption_is_transitive(a in arb_effect(), b in arb_effect(), c in arb_effect()) {
        let (h, _) = hierarchy();
        if effect_subsumed(&h, &a, &b) && effect_subsumed(&h, &b, &c) {
            prop_assert!(effect_subsumed(&h, &a, &c));
        }
    }

    #[test]
    fn precision_coarsening_preserves_subsumption(e in arb_effect()) {
        // If a method's write effect subsumes a read at precise labels, it
        // still does at class labels and purity labels (coarsening is
        // monotone) — this is why §5.4's ablation remains complete.
        let (h, _) = hierarchy();
        let class = e.coarsen_to_class();
        let purity = e.coarsen_to_purity();
        prop_assert!(effect_subsumed(&h, &e, &class));
        prop_assert!(effect_subsumed(&h, &class, &purity));
    }

    #[test]
    fn implies_agrees_with_truth_tables(p in arb_skeleton(), q in arb_skeleton()) {
        let brute = (0..16u32).all(|bits| !truth(&p, bits) || truth(&q, bits));
        prop_assert_eq!(implies(&p, &q), brute, "{} => {}", p.compact(), q.compact());
        prop_assert!(implies(&p, &p), "reflexive: {}", p.compact());
        prop_assert!(implies(&p, &or(p.clone(), q.clone())), "weakening");
        prop_assert_eq!(
            implies(&p, &q),
            implies(&not(q.clone()), &not(p.clone())),
            "contrapositive"
        );
    }

    #[test]
    fn metrics_are_positive_and_stable(e in arb_expr()) {
        prop_assert!(node_count(&e) >= 1);
        prop_assert!(path_count(&e) >= 1);
        // Rendering is deterministic.
        prop_assert_eq!(e.compact(), e.clone().compact());
    }

    #[test]
    fn simplify_is_idempotent_and_preserves_evaluability(e in arb_expr()) {
        let s1 = rbsyn::core::expand::simplify(e.clone());
        let s2 = rbsyn::core::expand::simplify(s1.clone());
        prop_assert_eq!(&s1, &s2);
        prop_assert_eq!(e.has_holes(), s1.has_holes());
    }
}
