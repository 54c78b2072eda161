//! The one materialized-answer representation: a cost column beside a
//! row-major slab of values.
//!
//! Every plan that materializes its answers before ranking them — the
//! triangle route, `Batch` plans, non-commutative rankings on cyclic
//! routes, the batch baselines — fills an [`AnswerSlab`]: two
//! allocations that grow by doubling, whatever the answer count, where
//! a `Vec<(cost, Vec<Value>)>` paid one allocation per answer. Ranking
//! then orders **row ids** ([`SlabHeap`], or a sorted id column) that
//! compare through the slab by `(cost, values)`; an answer's values are
//! copied out only when a stream emits it.
//!
//! Row ids are `u32`: [`AnswerSlab::row_ids`] is the one place that
//! checks the count, and an artifact over more than 2³² answers is the
//! typed [`TdpError::TooLarge`], never a truncated id.

use crate::answer::RankedAnswer;
use crate::succorder::{heapify_by, sift_down_by};
use crate::tdp::{id_bound, TdpError};
use anyk_storage::Value;
use std::cmp::Ordering;
use std::ops::Range;

/// Materialized answers: `costs[i]` beside `values[i * arity..][..arity]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerSlab<C> {
    arity: usize,
    costs: Vec<C>,
    values: Vec<Value>,
}

impl<C> AnswerSlab<C> {
    /// An empty slab for answers of `arity` values.
    pub fn new(arity: usize) -> Self {
        AnswerSlab {
            arity,
            costs: Vec::new(),
            values: Vec::new(),
        }
    }

    /// An empty slab with room for `rows` answers of `arity` values:
    /// a page, which knows how many answers it is about to take.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        AnswerSlab {
            arity,
            costs: Vec::with_capacity(rows),
            values: Vec::with_capacity(rows.saturating_mul(arity)),
        }
    }

    /// Append one answer.
    #[inline]
    pub fn push(&mut self, cost: C, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity, "answer arity mismatch");
        self.costs.push(cost);
        self.values.extend_from_slice(row);
    }

    /// Append the answer `write` produces: it is handed the new row to
    /// fill and returns the cost, or `None` — nothing is appended — when
    /// there is no answer. True iff an answer was appended.
    #[inline]
    pub fn push_with(&mut self, write: impl FnOnce(&mut [Value]) -> Option<C>) -> bool {
        let at = self.values.len();
        self.values.resize(at + self.arity, Value::Int(0));
        match write(&mut self.values[at..]) {
            Some(cost) => {
                self.costs.push(cost);
                true
            }
            None => {
                self.values.truncate(at);
                false
            }
        }
    }

    /// Move the last answer, if any, to the end of `to` — no cost is
    /// cloned. How a served page hands its lookahead row to the cursor
    /// and takes it back.
    pub fn move_last_to(&mut self, to: &mut AnswerSlab<C>) {
        assert_eq!(to.arity, self.arity, "answer arity mismatch");
        if let Some(cost) = self.costs.pop() {
            let at = self.costs.len() * self.arity;
            to.costs.push(cost);
            to.values.extend_from_slice(&self.values[at..]);
            self.values.truncate(at);
        }
    }

    /// Give back the growth slack of both columns: what an artifact
    /// does before it settles in to be held for a plan's lifetime.
    pub fn shrink_to_fit(&mut self) {
        self.costs.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// Values per answer.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of answers.
    #[inline]
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True iff there are no answers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// The cost column, in materialization order.
    #[inline]
    pub fn costs(&self) -> &[C] {
        &self.costs
    }

    /// Answer `i`'s values.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.arity..][..self.arity]
    }

    /// `(cost, values)` of every answer, in materialization order.
    pub fn iter(&self) -> impl Iterator<Item = (&C, &[Value])> + '_ {
        (self.costs.iter().enumerate()).map(|(i, c)| (c, self.row(i)))
    }

    /// The ids of all rows, or the typed refusal when they do not fit
    /// the 32-bit ids the ranking artifacts order.
    pub fn row_ids(&self) -> Result<Range<u32>, TdpError> {
        id_bound(self.len()).map(|n| 0..n)
    }
}

impl<C: Clone> AnswerSlab<C> {
    /// Append every answer of `more`, in its order, growing each column
    /// once and to exactly the sum.
    pub fn extend(&mut self, more: &AnswerSlab<C>) {
        assert_eq!(more.arity, self.arity, "answer arity mismatch");
        self.costs.reserve_exact(more.costs.len());
        self.costs.extend_from_slice(&more.costs);
        self.values.reserve_exact(more.values.len());
        self.values.extend_from_slice(&more.values);
    }

    /// Copy answer `i`'s values into `out` and return its cost.
    #[inline]
    pub fn copy_row(&self, i: usize, out: &mut [Value]) -> C {
        out.copy_from_slice(self.row(i));
        self.costs[i].clone()
    }

    /// Copy answer `i` out.
    #[inline]
    pub fn answer(&self, i: usize) -> RankedAnswer<C> {
        RankedAnswer {
            cost: self.costs[i].clone(),
            values: self.row(i).to_vec(),
        }
    }
}

impl<C: Ord> AnswerSlab<C> {
    /// The canonical `(cost, values)` order of two rows — total up to
    /// exact duplicates, so every artifact ordered by it emits the same
    /// bytes, ties included.
    #[inline]
    pub fn cmp_rows(&self, x: u32, y: u32) -> Ordering {
        let (x, y) = (x as usize, y as usize);
        self.costs[x]
            .cmp(&self.costs[y])
            .then_with(|| self.row(x).cmp(self.row(y)))
    }

    /// `ids` sorted into `(cost, values)` order.
    pub fn sorted(&self, ids: Range<u32>) -> Vec<u32> {
        let mut order: Vec<u32> = ids.collect();
        order.sort_unstable_by(|&x, &y| self.cmp_rows(x, y));
        order
    }
}

/// A binary min-heap of row ids ordered through a slab by
/// `(cost, values)`: `O(r)` to build, `O(log r)` per pop, four bytes
/// per answer and no handle to the slab inside the elements — the
/// caller passes the slab it already holds.
#[derive(Debug)]
pub struct SlabHeap {
    ids: Vec<u32>,
}

impl SlabHeap {
    /// Heapify `ids` over `slab`.
    pub fn new<C: Ord>(slab: &AnswerSlab<C>, ids: Range<u32>) -> Self {
        let mut ids: Vec<u32> = ids.collect();
        heapify_by(&mut ids, |&x, &y| slab.cmp_rows(x, y).is_lt());
        SlabHeap { ids }
    }

    /// Remove and return the least row id.
    pub fn pop<C: Ord>(&mut self, slab: &AnswerSlab<C>) -> Option<u32> {
        let last = self.ids.len().checked_sub(1)?;
        self.ids.swap(0, last);
        let least = self.ids.pop();
        sift_down_by(&mut self.ids, 0, |&x, &y| slab.cmp_rows(x, y).is_lt());
        least
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab(rows: &[(i64, [i64; 2])]) -> AnswerSlab<i64> {
        let mut s = AnswerSlab::new(2);
        for (c, r) in rows {
            s.push(*c, &[Value::Int(r[0]), Value::Int(r[1])]);
        }
        s
    }

    #[test]
    fn heap_pops_in_cost_then_row_order_and_matches_sorted() {
        let s = slab(&[
            (5, [1, 1]),
            (2, [9, 0]),
            (2, [3, 7]),
            (7, [0, 0]),
            (2, [3, 7]),
            (1, [4, 4]),
        ]);
        let ids = s.row_ids().unwrap();
        let mut heap = SlabHeap::new(&s, ids.clone());
        let mut popped = Vec::new();
        while let Some(i) = heap.pop(&s) {
            popped.push((s.costs()[i as usize], s.row(i as usize).to_vec()));
        }
        let sorted: Vec<_> = (s.sorted(ids).iter())
            .map(|&i| (s.costs()[i as usize], s.row(i as usize).to_vec()))
            .collect();
        assert_eq!(popped, sorted);
        assert_eq!(sorted[0].0, 1);
        assert_eq!(sorted[1], (2, vec![Value::Int(3), Value::Int(7)]));
        assert_eq!(sorted[3], (2, vec![Value::Int(9), Value::Int(0)]));
        assert!(heap.pop(&s).is_none());
    }

    #[test]
    fn artifacts_refuse_more_rows_than_32_bit_ids() {
        // Zero-sized costs and zero-width rows: a slab of 2^32 + 1
        // answers that occupies no memory.
        let at_limit = u32::MAX as usize;
        let slab = |len: usize| AnswerSlab {
            arity: 0,
            costs: vec![(); len],
            values: Vec::new(),
        };
        assert_eq!(slab(at_limit).row_ids(), Ok(0..u32::MAX));
        let too_large = Err(TdpError::TooLarge { len: at_limit + 1 });
        assert_eq!(slab(at_limit + 1).row_ids(), too_large);
        let lazy = crate::cyclic::LazySortedAnswers::new(slab(at_limit + 1));
        assert_eq!(
            lazy.map(|_| ()),
            Err(TdpError::TooLarge { len: at_limit + 1 })
        );
        let sorted = crate::cyclic::SortedAnswers::new(slab(at_limit + 1));
        assert_eq!(
            sorted.map(|_| ()),
            Err(TdpError::TooLarge { len: at_limit + 1 })
        );
    }

    #[test]
    fn a_page_takes_rows_in_place_and_hands_its_last_one_over() {
        let mut page: AnswerSlab<i64> = AnswerSlab::with_capacity(2, 3);
        let mut next = [(7, [1, 2]), (9, [3, 4])].into_iter();
        let mut fill = |row: &mut [Value]| {
            let (cost, values) = next.next()?;
            row.copy_from_slice(&values.map(Value::Int));
            Some(cost)
        };
        assert!(page.push_with(&mut fill));
        assert!(page.push_with(&mut fill));
        // No answer: the row offered to the writer is taken back.
        assert!(!page.push_with(&mut fill));
        assert_eq!(page, slab(&[(7, [1, 2]), (9, [3, 4])]));
        let mut carry = AnswerSlab::new(2);
        page.move_last_to(&mut carry);
        assert_eq!((page.len(), carry.len()), (1, 1));
        assert_eq!(carry.answer(0), slab(&[(9, [3, 4])]).answer(0));
        carry.move_last_to(&mut page);
        AnswerSlab::new(2).move_last_to(&mut page); // nothing to move
        assert!(carry.is_empty());
        assert_eq!(page, slab(&[(7, [1, 2]), (9, [3, 4])]));
        let mut row = [Value::Int(0); 2];
        assert_eq!(page.copy_row(1, &mut row), 9);
        assert_eq!(row, [Value::Int(3), Value::Int(4)]);
    }

    #[test]
    fn empty_and_zero_arity_slabs() {
        let s: AnswerSlab<i64> = AnswerSlab::new(2);
        assert!(s.is_empty());
        assert_eq!(s.row_ids().unwrap(), 0..0);
        assert!(SlabHeap::new(&s, 0..0).pop(&s).is_none());
        let mut z: AnswerSlab<i64> = AnswerSlab::new(0);
        z.push(3, &[]);
        assert_eq!(z.len(), 1);
        assert!(z.row(0).is_empty());
        assert_eq!(z.answer(0).cost, 3);
    }
}
