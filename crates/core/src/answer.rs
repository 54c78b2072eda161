//! Ranked answers and the any-k iterator contract.

use anyk_storage::Value;
use std::fmt::Debug;

/// One query answer produced by ranked enumeration: its cost under the
/// active ranking function plus the output tuple (one value per query
/// variable, in `VarId` order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedAnswer<C> {
    /// Cost under the ranking function (smaller = ranked earlier).
    pub cost: C,
    /// Output tuple, one `Value` per query variable.
    pub values: Vec<Value>,
}

impl<C> RankedAnswer<C> {
    /// The tuple as `i64`s — convenience for integer-keyed workloads
    /// (graph patterns), where every output value is a node id.
    ///
    /// # Panics
    ///
    /// If any value is not a [`Value::Int`] (e.g. a float attribute or
    /// an interned string). Servers handling mixed-type catalogs should
    /// use [`RankedAnswer::try_ints`] instead.
    pub fn ints(&self) -> Vec<i64> {
        self.try_ints()
            .expect("RankedAnswer::ints on non-Int values; use try_ints")
    }

    /// The tuple as `i64`s, or `None` if any value is not an
    /// integer — the non-panicking form of [`RankedAnswer::ints`].
    pub fn try_ints(&self) -> Option<Vec<i64>> {
        self.values.iter().map(|v| v.as_int()).collect()
    }
}

/// The *any-k* ("anytime top-k") contract: an iterator that yields
/// answers in non-decreasing cost order, one at a time, without knowing
/// `k` in advance (Part 3 of the paper). Implemented by
/// [`AnyKPart`](crate::part::AnyKPart), [`AnyKRec`](crate::rec::AnyKRec),
/// the batch baselines, and the cyclic-plan mergers.
pub trait AnyK: Iterator<Item = RankedAnswer<<Self as AnyK>::Cost>> {
    /// The ranking function's cost type.
    type Cost: Clone + Ord + Debug;

    /// [`next`](Iterator::next) with the answer's values written into
    /// `row` — one slot per output column — instead of a vector of
    /// their own: how a page of answers is filled in place
    /// ([`AnswerSlab::push_with`](crate::slab::AnswerSlab::push_with)).
    /// Enumerators that hold their answers as row choices or slab rows
    /// override it to write each value once.
    ///
    /// # Panics
    ///
    /// If `row` is not as long as the stream's answers.
    fn next_into(&mut self, row: &mut [Value]) -> Option<Self::Cost> {
        let answer = self.next()?;
        row.copy_from_slice(&answer.values);
        Some(answer.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_storage::Weight;

    #[test]
    fn answer_equality() {
        let a = RankedAnswer {
            cost: Weight::new(1.0),
            values: vec![Value::Int(1)],
        };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
