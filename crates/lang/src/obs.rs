//! Deterministic observation hashing for evaluation vectors.
//!
//! An evaluation vector compares *behavior fingerprints* of programs: the
//! result value, effect trace and post-run state hash of a run against a
//! spec's prepared test state. specgen's differential gate accepts a
//! synthesized program only when its fingerprints equal the hidden
//! reference's, so they must be a pure function of the observed behavior
//! — **never** of process-local accidents. The derived `Hash` impls in
//! this crate are not good enough for that: [`Symbol`] hashes its
//! interner index, and interning order varies with thread interleaving in
//! a parallel batch, which would make the verdict depend on the thread
//! count.
//!
//! This module provides an *observation hasher* that folds identifiers in
//! by **string content** and aggregates unordered collections (instance
//! variables, globals) with an order-independent combine, so a fingerprint
//! is identical across threads, processes and batch shapes. Fingerprints
//! are 128-bit (two independently seeded [`FxHasher`] lanes fed by one
//! traversal), which keeps accidental collisions — two genuinely
//! different behaviors judged equal — out of reach.

use crate::effects::{Effect, EffectPair, EffectSet};
use crate::intern::{FxHasher, Symbol};
use crate::value::{ClassId, Value};
use std::hash::Hasher;

/// A two-lane 128-bit observation hasher.
///
/// Both lanes see the same write stream but start from distinct seeds, so
/// the lanes are effectively independent 64-bit digests. Use the `put_*`
/// helpers (or [`std::hash::Hasher::write_u64`] directly) and finish with
/// [`ObsHasher::finish128`].
pub struct ObsHasher {
    lo: FxHasher,
    hi: FxHasher,
}

impl Default for ObsHasher {
    fn default() -> ObsHasher {
        ObsHasher::new()
    }
}

impl ObsHasher {
    /// A fresh hasher with distinctly seeded lanes.
    pub fn new() -> ObsHasher {
        let mut lo = FxHasher::default();
        let mut hi = FxHasher::default();
        lo.write_u64(0x6f62_735f_6c6f_5f31); // "obs_lo_1"
        hi.write_u64(0x6f62_735f_6869_5f32); // "obs_hi_2"
        ObsHasher { lo, hi }
    }

    /// Folds raw bytes into both lanes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.lo.write(bytes);
        self.hi.write(bytes);
    }

    /// Folds a word into both lanes.
    pub fn put_u64(&mut self, v: u64) {
        self.lo.write_u64(v);
        self.hi.write_u64(v);
    }

    /// Folds a signed word into both lanes.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    /// Folds a 128-bit word into both lanes.
    pub fn put_u128(&mut self, v: u128) {
        self.put_u64(v as u64);
        self.put_u64((v >> 64) as u64);
    }

    /// Folds a symbol by its **string content** (interner indices are not
    /// stable across thread interleavings; strings are).
    pub fn put_symbol(&mut self, s: Symbol) {
        let str_ = s.as_str();
        self.put_u64(str_.len() as u64);
        self.put_bytes(str_.as_bytes());
    }

    /// Folds a class identity by dense index *and* name string (ids from
    /// one environment build are deterministic; the name guards against
    /// cross-hierarchy aliasing).
    pub fn put_class(&mut self, c: ClassId) {
        self.put_u64(u64::from(c.idx));
        self.put_symbol(c.name);
    }

    /// Folds a runtime value. Heap references hash by slot index, which is
    /// deterministic for a fixed (snapshot, candidate) pair — allocation
    /// order is part of the observed behavior.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Nil => self.put_u64(0),
            Value::Bool(b) => {
                self.put_u64(1);
                self.put_u64(u64::from(*b));
            }
            Value::Int(i) => {
                self.put_u64(2);
                self.put_i64(*i);
            }
            Value::Str(s) => {
                self.put_u64(3);
                self.put_u64(s.len() as u64);
                self.put_bytes(s.as_bytes());
            }
            Value::Sym(s) => {
                self.put_u64(4);
                self.put_symbol(*s);
            }
            Value::Hash(entries) => {
                self.put_u64(5);
                self.put_u64(entries.len() as u64);
                for (k, val) in entries {
                    self.put_value(k);
                    self.put_value(val);
                }
            }
            Value::Array(items) => {
                self.put_u64(6);
                self.put_u64(items.len() as u64);
                for item in items {
                    self.put_value(item);
                }
            }
            Value::Class(c) => {
                self.put_u64(7);
                self.put_class(*c);
            }
            Value::Obj(r) => {
                self.put_u64(8);
                self.put_u64(u64::from(r.0));
            }
        }
    }

    /// Folds an effect atom (regions by class + string).
    pub fn put_effect(&mut self, e: Effect) {
        match e {
            Effect::Star => self.put_u64(0),
            Effect::ClassStar(c) => {
                self.put_u64(1);
                self.put_class(c);
            }
            Effect::Region(c, r) => {
                self.put_u64(2);
                self.put_class(c);
                self.put_symbol(r);
            }
            Effect::SelfStar => self.put_u64(3),
            Effect::SelfRegion(r) => {
                self.put_u64(4);
                self.put_symbol(r);
            }
        }
    }

    /// Folds a canonical effect set (atoms are already sorted).
    pub fn put_effect_set(&mut self, e: &EffectSet) {
        self.put_u64(e.atoms().len() as u64);
        for a in e.atoms() {
            self.put_effect(*a);
        }
    }

    /// Folds a read/write effect pair.
    pub fn put_effect_pair(&mut self, e: &EffectPair) {
        self.put_effect_set(&e.read);
        self.put_effect_set(&e.write);
    }

    /// The 128-bit digest.
    pub fn finish128(&self) -> u128 {
        (u128::from(self.hi.finish()) << 64) | u128::from(self.lo.finish())
    }
}

/// Order-independent combine for unordered collections (instance-variable
/// maps, globals): fingerprint each item with `f`, fold with wrapping adds
/// so iteration order — which `std::collections::HashMap` randomizes per
/// instance — cannot leak into the digest.
pub fn unordered_obs_fold<T>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(&mut ObsHasher, T),
) -> u128 {
    let mut acc: u128 = 0;
    let mut n: u64 = 0;
    for item in items {
        let mut h = ObsHasher::new();
        f(&mut h, item);
        acc = acc.wrapping_add(h.finish128());
        n += 1;
    }
    let mut h = ObsHasher::new();
    h.put_u64(n);
    h.put_u128(acc);
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(f: impl Fn(&mut ObsHasher)) -> u128 {
        let mut h = ObsHasher::new();
        f(&mut h);
        h.finish128()
    }

    #[test]
    fn values_hash_by_content() {
        assert_eq!(
            fp(|h| h.put_value(&Value::str("a"))),
            fp(|h| h.put_value(&Value::str("a")))
        );
        assert_ne!(
            fp(|h| h.put_value(&Value::str("a"))),
            fp(|h| h.put_value(&Value::str("b")))
        );
        assert_ne!(
            fp(|h| h.put_value(&Value::Int(0))),
            fp(|h| h.put_value(&Value::Bool(false)))
        );
        assert_ne!(
            fp(|h| h.put_value(&Value::Nil)),
            fp(|h| h.put_value(&Value::Array(vec![])))
        );
    }

    #[test]
    fn symbols_hash_by_string_not_index() {
        // Two symbols with distinct interner indices but we only check the
        // positive property available here: equal strings, equal digests.
        let a = Symbol::intern("obs_test_sym");
        let b = Symbol::intern("obs_test_sym");
        assert_eq!(fp(|h| h.put_symbol(a)), fp(|h| h.put_symbol(b)));
        let c = Symbol::intern("obs_test_other");
        assert_ne!(fp(|h| h.put_symbol(a)), fp(|h| h.put_symbol(c)));
    }

    #[test]
    fn unordered_fold_ignores_order() {
        let items = [("a", 1i64), ("b", 2), ("c", 3)];
        let rev: Vec<_> = items.iter().rev().collect();
        let fwd: Vec<_> = items.iter().collect();
        let digest = |v: &[&(&str, i64)]| {
            unordered_obs_fold(v.iter(), |h, (k, n)| {
                h.put_bytes(k.as_bytes());
                h.put_i64(*n);
            })
        };
        assert_eq!(digest(&fwd), digest(&rev));
        // Not order-independent to the point of ignoring content.
        assert_ne!(
            digest(&fwd),
            digest(&[&("a", 1), &("b", 2)]),
            "missing items change the digest"
        );
    }

    #[test]
    fn effects_distinguish_atoms() {
        let c = ClassId::new(3, Symbol::intern("Post"));
        let r1 = Effect::Region(c, Symbol::intern("title"));
        let r2 = Effect::Region(c, Symbol::intern("slug"));
        assert_ne!(fp(|h| h.put_effect(r1)), fp(|h| h.put_effect(r2)));
        assert_ne!(
            fp(|h| h.put_effect(Effect::Star)),
            fp(|h| h.put_effect(Effect::ClassStar(c)))
        );
    }
}
