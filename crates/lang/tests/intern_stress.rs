//! Property and stress tests for the symbol table and its lock-free
//! resolution.
//!
//! The table's contract: interning is idempotent and race-free (equal
//! strings always agree on one id, no matter which thread wins the insert
//! race), distinct strings get distinct ids, and resolution round-trips
//! every published id without locking.

use proptest::prelude::*;
use rbsyn_lang::{Symbol, SymbolTable};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

/// A mixed identifier corpus: realistic method/region names plus
/// numbered families of them.
fn corpus(n: usize) -> Vec<String> {
    let stems = [
        "title",
        "slug",
        "author",
        "state",
        "Post.create",
        "find_by",
        "==",
        "count",
        "exists?",
        "save!",
    ];
    (0..n)
        .map(|i| format!("{}_{}", stems[i % stems.len()], i / stems.len()))
        .collect()
}

#[test]
fn concurrent_overlapping_interns_agree_on_ids() {
    let table = Arc::new(SymbolTable::new());
    let strings = Arc::new(corpus(400));
    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let maps: Vec<HashMap<String, u32>> = std::thread::scope(|scope| {
        (0..THREADS)
            .map(|t| {
                let table = Arc::clone(&table);
                let strings = Arc::clone(&strings);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    // Every thread interns every string, but walks the
                    // corpus from a different offset so first-toucher
                    // varies per string — the overlap is the point.
                    barrier.wait();
                    let mut ids = HashMap::new();
                    for i in 0..strings.len() {
                        let s = &strings[(i + t * 53) % strings.len()];
                        ids.insert(s.clone(), table.intern(s));
                    }
                    ids
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("interning thread panicked"))
            .collect()
    });
    let first = &maps[0];
    for other in &maps[1..] {
        assert_eq!(first, other, "threads disagree on interned ids");
    }
    for (s, &id) in first {
        assert_eq!(table.resolve(id), s.as_str(), "resolution must round-trip");
    }
    assert_eq!(table.len(), strings.len());
}

#[test]
fn barrier_race_on_the_insert_path_is_single_publication() {
    // Rounds of maximal insert contention: every thread releases from a
    // barrier straight into interning the SAME brand-new string, so the
    // insert-race arm (double-checked write lock) runs constantly. All
    // racers must observe one id, and the table must grow by exactly one
    // slot per round.
    let table = Arc::new(SymbolTable::new());
    const THREADS: usize = 8;
    const ROUNDS: usize = 200;
    let barrier = Arc::new(Barrier::new(THREADS));
    let winners: Vec<Vec<u32>> = std::thread::scope(|scope| {
        (0..THREADS)
            .map(|_| {
                let table = Arc::clone(&table);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|r| {
                            let s = format!("race_round_{r}");
                            barrier.wait();
                            let id = table.intern(&s);
                            assert_eq!(table.resolve(id), s, "published id must resolve at once");
                            id
                        })
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("racing thread panicked"))
            .collect()
    });
    for round in 0..ROUNDS {
        let id = winners[0][round];
        assert!(
            winners.iter().all(|w| w[round] == id),
            "round {round}: racers saw different ids"
        );
    }
    assert_eq!(table.len(), ROUNDS, "each round must publish exactly once");
}

#[test]
fn interning_is_idempotent_distinct_and_round_trips() {
    let strings = corpus(300);
    let table = SymbolTable::new();
    let ids: Vec<u32> = strings.iter().map(|s| table.intern(s)).collect();
    let again: Vec<u32> = strings.iter().map(|s| table.intern(s)).collect();
    assert_eq!(ids, again, "interning must be idempotent");
    for (s, &id) in strings.iter().zip(&ids) {
        assert_eq!(table.resolve(id), s.as_str());
    }
    let distinct: std::collections::HashSet<u32> = ids.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        strings.len(),
        "distinct strings, distinct ids"
    );
    assert_eq!(table.len(), strings.len());
}

#[test]
fn segment_growth_survives_thousands_of_symbols() {
    // 5,000 inserts march the arena across several segment boundaries
    // (512, 1536, 3584, …).
    let table = SymbolTable::new();
    let strings = corpus(5000);
    let ids: Vec<u32> = strings.iter().map(|s| table.intern(s)).collect();
    for (s, &id) in strings.iter().zip(&ids) {
        assert_eq!(table.resolve(id), s.as_str());
    }
    assert_eq!(table.len(), 5000);
}

#[test]
fn global_symbols_order_by_content_not_id() {
    // Ids follow interning order; ordering must come from string contents
    // alone.
    let mut syms: Vec<Symbol> = ["zeta", "alpha", "mu", "beta"]
        .iter()
        .map(|s| Symbol::intern(s))
        .collect();
    syms.sort();
    let sorted: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
    assert_eq!(sorted, ["alpha", "beta", "mu", "zeta"]);
}

proptest! {
    #[test]
    fn intern_resolve_roundtrips_arbitrary_strings(s in ".{0,64}") {
        let sym = Symbol::intern(&s);
        prop_assert_eq!(sym.as_str(), s.as_str());
        prop_assert_eq!(Symbol::intern(&s), sym);
    }

    #[test]
    fn instantiated_table_roundtrips_arbitrary_strings(
        strings in proptest::collection::vec(".{0,32}", 1..40),
    ) {
        let table = SymbolTable::new();
        for s in &strings {
            let id = table.intern(s);
            prop_assert_eq!(table.resolve(id), s.as_str());
            prop_assert_eq!(table.intern(s), id);
        }
        let distinct: std::collections::HashSet<&String> = strings.iter().collect();
        prop_assert_eq!(table.len(), distinct.len());
    }
}
