//! Property tests for observation hashing, the foundation of specgen's
//! differential gate:
//!
//! - [`unordered_obs_fold`] must be insensitive to *any* permutation of
//!   its input (HashMap iteration order must not leak into fingerprints);
//! - [`ObsHasher`] digests must be process-independent — a fingerprint
//!   computed today must equal one computed in CI last month, so the
//!   golden constants below are hard-coded, not recomputed.

use rbsyn_lang::obs::{unordered_obs_fold, ObsHasher};
use rbsyn_lang::{Symbol, Value};

/// Minimal deterministic generator for shuffling (kept local so this test
/// has no dependencies beyond the crate under test).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut XorShift) {
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn fold_pairs(pairs: &[(String, i64)]) -> u128 {
    unordered_obs_fold(pairs.iter(), |h, (k, n)| {
        h.put_bytes(k.as_bytes());
        h.put_i64(*n);
    })
}

#[test]
fn unordered_fold_is_permutation_invariant() {
    let base: Vec<(String, i64)> = (0..32).map(|i| (format!("ivar_{i}"), i * 7 - 3)).collect();
    let expected = fold_pairs(&base);
    let mut rng = XorShift(0x5eed);
    let mut shuffled = base.clone();
    for round in 0..50 {
        shuffle(&mut shuffled, &mut rng);
        assert_eq!(
            fold_pairs(&shuffled),
            expected,
            "permutation round {round} changed the digest"
        );
    }
    // Rotations too (a systematic family the shuffle may under-sample).
    let mut rotated = base.clone();
    for round in 0..base.len() {
        rotated.rotate_left(1);
        assert_eq!(
            fold_pairs(&rotated),
            expected,
            "rotation {round} changed the digest"
        );
    }
}

#[test]
fn unordered_fold_is_content_sensitive() {
    let base: Vec<(String, i64)> = (0..8).map(|i| (format!("k{i}"), i)).collect();
    let expected = fold_pairs(&base);
    // Dropping an item, duplicating an item, or changing one value must
    // all change the digest (order-independence must not collapse into
    // content-independence).
    let mut dropped = base.clone();
    dropped.pop();
    assert_ne!(fold_pairs(&dropped), expected);
    let mut duplicated = base.clone();
    duplicated.push(base[0].clone());
    assert_ne!(fold_pairs(&duplicated), expected);
    let mut changed = base.clone();
    changed[3].1 += 1;
    assert_ne!(fold_pairs(&changed), expected);
}

#[test]
fn empty_fold_is_distinguished_from_missing() {
    let empty = fold_pairs(&[]);
    let one = fold_pairs(&[("k".to_owned(), 0)]);
    assert_ne!(empty, 0, "empty fold must still be a real digest");
    assert_ne!(empty, one);
}

/// Golden fingerprints. These constants were computed once and pinned;
/// they must never change, because cached fingerprints and cross-process
/// comparisons (parallel batch workers, specgen's gate re-deriving a
/// reference in a fresh process) assume digests are a pure function of
/// observed content. If this test fails, the hash function changed — that
/// invalidates every persisted fingerprint and must be an explicit,
/// documented decision, not an accident.
#[test]
fn fingerprints_are_process_independent_golden() {
    let fp = |f: &dyn Fn(&mut ObsHasher)| {
        let mut h = ObsHasher::new();
        f(&mut h);
        h.finish128()
    };
    assert_eq!(
        fp(&|h| h.put_value(&Value::Nil)),
        0x29fc59ea2f969825_6fb746a16f3d60c4_u128
    );
    assert_eq!(
        fp(&|h| h.put_value(&Value::Int(42))),
        0x5a02948e148415cf_2af94006ef6f9808_u128
    );
    assert_eq!(
        fp(&|h| h.put_value(&Value::str("hello"))),
        0xb54d5ba9c642b985_2fb333f249447751_u128
    );
    assert_eq!(
        fp(&|h| h.put_symbol(Symbol::intern("updated"))),
        0x1d3c8948a465cbb1_dcb009669d938c4e_u128
    );
    assert_eq!(
        fp(&|h| {
            h.put_value(&Value::Array(vec![
                Value::Int(1),
                Value::Bool(true),
                Value::str("x"),
            ]))
        }),
        0x95835a4e713cb1d3_653d6d43576e9043_u128
    );
    assert_eq!(
        fold_pairs(&[("state".to_owned(), 3), ("title".to_owned(), -1)]),
        0xfdc48432db9576a5_72fd284d2a04bf03_u128
    );
}
