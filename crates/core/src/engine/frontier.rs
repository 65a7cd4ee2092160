//! The search frontier: the candidate priority queue of Algorithm 2,
//! ordered by a pluggable [`SearchStrategy`].
//!
//! The queue is generic over its payload: `generate` enqueues a
//! [`FrontierItem`] (the candidate's [`ExprId`] plus the `Arc`'d
//! expression, so a pop needs no arena lookup), the guard pool enqueues
//! bare node ids of its private arena. Both share this one ordering.
//! Insertion order is tracked internally and used as the final tiebreak,
//! making every strategy's exploration order fully deterministic (the
//! paper's `(c desc, size asc, insertion order)` is
//! [`PaperOrder`](crate::engine::PaperOrder) under this scheme).

use crate::engine::strategy::{Priority, SearchStrategy};
use rbsyn_lang::{Expr, ExprId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One `generate` frontier candidate, as returned by [`Frontier::pop`].
pub struct FrontierItem {
    /// Passed-assert count of the candidate's best evaluable ancestor.
    pub c: usize,
    /// AST node count.
    pub size: usize,
    /// Hash-consed identity.
    pub id: ExprId,
    /// The candidate itself (shared with the arena).
    pub expr: Arc<Expr>,
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
    // BinaryHeap pops the maximum: highest strategy priority first, FIFO
    // among equals.
    fn cmp(&self, other: &Self) -> Ordering {
        self.pri.cmp(&other.pri).then(other.seq.cmp(&self.seq))
    }
}

/// The work-list priority queue of one search, holding payloads of type
/// `T`.
pub struct Frontier<'s, T = FrontierItem> {
    heap: BinaryHeap<Entry<T>>,
    strategy: &'s dyn SearchStrategy,
    seq: u64,
}

impl<'s, T> Frontier<'s, T> {
    /// An empty frontier ordered by `strategy`.
    pub fn new(strategy: &'s dyn SearchStrategy) -> Frontier<'s, T> {
        Frontier {
            heap: BinaryHeap::new(),
            strategy,
            seq: 0,
        }
    }

    /// Enqueues `item`, ranked by the strategy's priority of `(c, size)`.
    /// Insertion order is recorded as the final tiebreak.
    pub fn push(&mut self, c: usize, size: usize, item: T) {
        let pri = self.strategy.priority(c, size);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { pri, seq, item });
    }

    /// Removes and returns the highest-priority payload.
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.item)
    }

    /// [`Frontier::pop`] plus the popped item's rank `(priority, seq)`, so
    /// speculative consumers can re-enqueue it unchanged via
    /// [`Frontier::requeue`].
    pub fn pop_ranked(&mut self) -> Option<(Priority, u64, T)> {
        self.heap.pop().map(|e| (e.pri, e.seq, e.item))
    }

    /// Re-enqueues an item popped with [`Frontier::pop_ranked`] at its
    /// original rank (priority *and* insertion order), used to roll back
    /// a speculation window.
    pub fn requeue(&mut self, pri: Priority, seq: u64, item: T) {
        self.heap.push(Entry { pri, seq, item });
    }

    /// Would the current frontier head be popped before an item of rank
    /// `pri`? Anything pushed after that item lost the FIFO tiebreak, so
    /// strictly greater priority is the only way to outrank it.
    pub fn outranks(&self, pri: Priority) -> bool {
        self.heap.peek().is_some_and(|e| e.pri > pri)
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
    use crate::engine::strategy::PaperOrder;

    #[test]
    fn paper_order_pops_c_desc_size_asc_fifo() {
        let mut f = Frontier::new(&PaperOrder);
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
}
