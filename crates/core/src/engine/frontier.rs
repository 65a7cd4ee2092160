//! The search frontier: the candidate work-list of Algorithm 2, in §4's
//! order — passed asserts descending, AST size ascending, first pushed
//! first.
//!
//! The queue is generic over its payload: `generate` and the guard pool
//! both enqueue `(parent, sub)` pairs of their node arena, and share this
//! one ordering. It is one FIFO queue per rank `(c, size)`, so an entry
//! stores only its payload: no priority and no insertion counter per
//! entry, and the exploration order is fully deterministic.

use std::collections::{BTreeMap, VecDeque};

/// Frontier rank of a candidate: the frontier pops from the rank with the
/// largest `(major, minor)` pair, first pushed first within a rank.
/// Carried by [`Frontier::pop_ranked`] and [`Frontier::requeue`] so a
/// consumer can read a popped item's `c` or roll the pop back.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Priority {
    /// Passed-assert count `c` (larger pops first).
    pub major: u64,
    /// `u64::MAX − size` (smaller candidates pop first).
    pub minor: u64,
}

/// The work-list of one search, holding payloads of type `T`.
pub struct Frontier<T> {
    /// One FIFO per rank; a rank with no item has no queue.
    ranks: BTreeMap<Priority, VecDeque<T>>,
    len: usize,
}

impl<T> Default for Frontier<T> {
    fn default() -> Frontier<T> {
        Frontier::new()
    }
}

impl<T> Frontier<T> {
    /// An empty frontier.
    pub fn new() -> Frontier<T> {
        Frontier {
            ranks: BTreeMap::new(),
            len: 0,
        }
    }

    /// Enqueues `item`, ranked `c` descending, then `size` ascending,
    /// behind every item already at that rank.
    pub fn push(&mut self, c: usize, size: usize, item: T) {
        let pri = Priority {
            major: c as u64,
            minor: u64::MAX - size as u64,
        };
        self.ranks.entry(pri).or_default().push_back(item);
        self.len += 1;
    }

    /// Removes and returns the highest-priority payload.
    pub fn pop(&mut self) -> Option<T> {
        self.pop_ranked().map(|(_, item)| item)
    }

    /// [`Frontier::pop`] plus the popped item's rank, so a consumer can
    /// read its `c` or re-enqueue it unchanged via [`Frontier::requeue`].
    pub fn pop_ranked(&mut self) -> Option<(Priority, T)> {
        let mut rank = self.ranks.last_entry()?;
        let item = rank
            .get_mut()
            .pop_front()
            .expect("a rank's queue is never empty");
        let pri = *rank.key();
        if rank.get().is_empty() {
            rank.remove();
        }
        self.len -= 1;
        Some((pri, item))
    }

    /// Puts an item popped with [`Frontier::pop_ranked`] back at the front
    /// of its rank, used to roll back a pop the deadline interrupted. It
    /// then pops next, exactly as if it had never been popped.
    pub fn requeue(&mut self, pri: Priority, item: T) {
        self.ranks.entry(pri).or_default().push_front(item);
        self.len += 1;
    }

    /// Candidates currently enqueued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the frontier empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain(f: &mut Frontier<usize>) -> Vec<usize> {
        std::iter::from_fn(|| f.pop()).collect()
    }

    #[test]
    fn paper_order_pops_c_desc_size_asc_fifo() {
        let mut f = Frontier::new();
        f.push(0, 5, 1); // low c
        f.push(1, 9, 2); // high c, large
        f.push(1, 2, 3); // high c, small → first
        f.push(1, 2, 4); // tie with 3 → FIFO after it
        assert_eq!(f.len(), 4);
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), Some(4));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(1));
        assert!(f.is_empty());
        assert!(f.pop().is_none());
    }

    #[test]
    fn requeue_restores_the_exact_pop_order() {
        // `twin` sees the same pushes in the same order but never pops.
        let mut f = Frontier::new();
        let mut twin = Frontier::new();
        for (item, (c, size)) in [(1, 3), (1, 3), (1, 4), (0, 2), (1, 3)]
            .into_iter()
            .enumerate()
        {
            f.push(c, size, item);
            twin.push(c, size, item);
        }
        // Pop the three `(1, 3)` items, FIFO among the tie.
        let popped: Vec<_> = (0..3).map(|_| f.pop_ranked().expect("non-empty")).collect();
        assert_eq!(popped.iter().map(|w| w.1).collect::<Vec<_>>(), [0, 1, 4]);
        // Roll back in reverse pop order: each item goes back to the front
        // of its rank.
        for (pri, item) in popped.into_iter().rev() {
            f.requeue(pri, item);
        }
        let order = drain(&mut f);
        assert_eq!(order, [0, 1, 4, 2, 3]);
        assert_eq!(order, drain(&mut twin));
    }

    /// One step of a frontier workload.
    #[derive(Clone, Debug)]
    enum Op {
        Push(usize, usize),
        Pop,
        PopRequeue,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..3, 1usize..6).prop_map(|(c, size)| Op::Push(c, size)),
            Just(Op::Pop),
            Just(Op::PopRequeue),
        ]
    }

    /// The linear-scan reference: the item with the highest `(c, −size)`,
    /// earliest push first.
    fn reference_pop(items: &mut Vec<(usize, usize, u32)>) -> Option<(usize, usize, u32)> {
        let best = (0..items.len()).max_by_key(|&i| {
            let (c, size, item) = items[i];
            (c, std::cmp::Reverse(size), std::cmp::Reverse(item))
        })?;
        Some(items.remove(best))
    }

    proptest! {
        #[test]
        fn frontier_matches_a_linear_scan(ops in prop::collection::vec(op(), 0..200)) {
            let mut f: Frontier<u32> = Frontier::new();
            // Items are numbered in push order, so the smallest number at
            // a rank is the earliest push.
            let mut reference: Vec<(usize, usize, u32)> = Vec::new();
            let mut next = 0u32;
            for op in ops {
                match op {
                    Op::Push(c, size) => {
                        f.push(c, size, next);
                        reference.push((c, size, next));
                        next += 1;
                    }
                    Op::Pop => {
                        let want = reference_pop(&mut reference).map(|w| w.2);
                        prop_assert_eq!(f.pop(), want);
                    }
                    Op::PopRequeue => {
                        let want = reference_pop(&mut reference);
                        match f.pop_ranked() {
                            Some((pri, item)) => {
                                let (c, size, r) = want.expect("reference non-empty");
                                prop_assert_eq!(item, r);
                                prop_assert_eq!(pri.major, c as u64);
                                prop_assert_eq!(pri.minor, u64::MAX - size as u64);
                                f.requeue(pri, item);
                                reference.push((c, size, r));
                            }
                            None => prop_assert!(want.is_none()),
                        }
                    }
                }
                prop_assert_eq!(f.len(), reference.len());
                prop_assert_eq!(f.is_empty(), reference.is_empty());
            }
            let mut rest = Vec::new();
            while let Some(w) = reference_pop(&mut reference) {
                rest.push(w.2);
            }
            prop_assert_eq!(std::iter::from_fn(|| f.pop()).collect::<Vec<_>>(), rest);
        }
    }
}
