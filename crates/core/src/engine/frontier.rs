//! The search frontier: the candidate priority queue of Algorithm 2, in
//! §4's order — passed asserts descending, AST size ascending, insertion
//! order.
//!
//! The queue is generic over its payload: `generate` enqueues node ids of
//! its arena with their assert counts, the guard pool bare node ids. Both
//! share this one ordering. Insertion order is tracked internally and
//! used as the final tiebreak, making the exploration order fully
//! deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Frontier rank of a candidate: the frontier pops the item with the
/// largest `(major, minor)` pair, breaking full ties by insertion order
/// (FIFO). Carried by [`Frontier::pop_ranked`] and [`Frontier::requeue`]
/// so a consumer can roll a popped item back.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Priority {
    /// Passed-assert count `c` (larger pops first).
    pub major: u64,
    /// `u64::MAX − size` (smaller candidates pop first).
    pub minor: u64,
}

struct Entry<T> {
    pri: Priority,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    // BinaryHeap pops the maximum: highest priority first, FIFO among
    // equals.
    fn cmp(&self, other: &Self) -> Ordering {
        self.pri.cmp(&other.pri).then(other.seq.cmp(&self.seq))
    }
}

/// The work-list priority queue of one search, holding payloads of type
/// `T`.
pub struct Frontier<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
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
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Enqueues `item`, ranked `c` descending, then `size` ascending.
    /// Insertion order is recorded as the final tiebreak.
    pub fn push(&mut self, c: usize, size: usize, item: T) {
        let pri = Priority {
            major: c as u64,
            minor: u64::MAX - size as u64,
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { pri, seq, item });
    }

    /// Removes and returns the highest-priority payload.
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.item)
    }

    /// [`Frontier::pop`] plus the popped item's rank `(priority, seq)`, so
    /// a consumer can re-enqueue it unchanged via [`Frontier::requeue`].
    pub fn pop_ranked(&mut self) -> Option<(Priority, u64, T)> {
        self.heap.pop().map(|e| (e.pri, e.seq, e.item))
    }

    /// Re-enqueues an item popped with [`Frontier::pop_ranked`] at its
    /// original rank (priority *and* insertion order), used to roll back
    /// a pop the deadline interrupted.
    pub fn requeue(&mut self, pri: Priority, seq: u64, item: T) {
        self.heap.push(Entry { pri, seq, item });
    }

    /// Candidates currently enqueued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the frontier empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(popped.iter().map(|w| w.2).collect::<Vec<_>>(), [0, 1, 4]);
        // Roll back (in any order: the original ranks decide).
        for (pri, seq, item) in popped.into_iter().rev() {
            f.requeue(pri, seq, item);
        }
        let order = drain(&mut f);
        assert_eq!(order, [0, 1, 4, 2, 3]);
        assert_eq!(order, drain(&mut twin));
    }
}
