//! Sorted tries over relations, the backbone of worst-case-optimal joins.
//!
//! A [`Trie`] materializes a relation as nested sorted levels following a
//! chosen attribute order. Generic-Join binds one query variable at a
//! time by *intersecting* the child value lists of the participating
//! relations' trie nodes; [`gallop`] (and [`Trie::seek`] over one node's
//! children) is the galloping search that makes a skip cost the
//! logarithm of its distance (Leapfrog-Triejoin style).
//!
//! Layout: level `l` stores the concatenated, per-parent-sorted distinct
//! values of attribute `l` (`values[l]`) plus, for each value, the start
//! of its child span in the next level (`starts[l]`). The final level's
//! spans index into `rows`, the row ids sorted by the attribute order
//! with ties in row-id order — so every trie leaf can recover the
//! original tuples (and weights), in input order.
//!
//! Build: [`Trie::build`] never compares `Value`s. Each row becomes one
//! `u128` sort record — the value's order-preserving `(tag, key)` pair
//! above the row id — and every level is an integer sort of each
//! parent's segment followed by one scan for equal-key runs; see
//! [`Trie::build`].

use crate::relation::{Relation, RowId};
use crate::value::Value;

/// A handle to one trie node's *children*: the span
/// `values[level][start..end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHandle {
    /// Level of the child values this handle spans.
    pub level: u32,
    /// Start index within `values[level]`.
    pub start: u32,
    /// End index within `values[level]` (exclusive).
    pub end: u32,
}

impl NodeHandle {
    /// Number of child values.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True iff the node has no children (cannot happen for handles
    /// produced by descending into an existing value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Bits of a sort record holding the row id.
const ROW_BITS: u32 = RowId::BITS;

/// The `u128` [`Trie::build`] sorts: `value`'s order-preserving
/// `(tag, key)` pair above the row id — `tag:8 | key:64 | row:32` — so
/// integer order on records is `(value, row)` order and equal values
/// share everything above [`ROW_BITS`].
#[inline]
fn sort_record(value: Value, row: RowId) -> u128 {
    let (tag, key) = value.order_key();
    (tag as u128) << (64 + ROW_BITS) | (key as u128) << ROW_BITS | row as u128
}

/// The row id in a sort record's low bits.
#[inline]
fn record_row(rec: u128) -> RowId {
    // Truncation is the point: the id is the low `ROW_BITS`.
    rec as RowId
}

/// A materialized sorted trie over a relation (see module docs).
#[derive(Debug)]
pub struct Trie {
    /// Attribute positions (into the base relation) per level.
    positions: Vec<usize>,
    /// Distinct values per level, concatenated across parents.
    values: Vec<Vec<Value>>,
    /// `starts[l][i]` = start of the child span of `values[l][i]` in
    /// level `l+1` (or in `rows` for the last level);
    /// `starts[l][i+1]` is the end. Length is `values[l].len() + 1`.
    starts: Vec<Vec<u32>>,
    /// Row ids sorted by the attribute order.
    rows: Vec<RowId>,
}

impl Trie {
    /// Build a trie over `rel` with one level per position in
    /// `positions` (a permutation or subset of the relation's columns).
    ///
    /// Rows are ordered level by level over packed `u128` sort records
    /// (`tag:8 | key:64 | row:32`, see `sort_record`): level `l` re-keys every record with its
    /// row's level-`l` value and sorts each level-`(l-1)` node's
    /// segment as plain integers, so equal-key runs — the level's
    /// distinct values and their child spans — fall out of the same
    /// pass. The row id in a record's low bits breaks ties, so `rows`
    /// is the relation sorted by `(positions…, RowId)`.
    ///
    /// # Panics
    ///
    /// If `positions` is empty or `rel` has more rows than a [`RowId`]
    /// can address.
    pub fn build(rel: &Relation, positions: &[usize]) -> Self {
        assert!(!positions.is_empty(), "trie needs at least one level");
        // The one checked bound: every id, span and offset below
        // counts rows or distinct values, so none exceeds `n`.
        let n = RowId::try_from(rel.len()).expect("a relation's rows are addressable by RowId");
        let depth = positions.len();
        let mut values: Vec<Vec<Value>> = vec![Vec::new(); depth];
        let mut starts: Vec<Vec<u32>> = vec![Vec::new(); depth];
        // Row ids first; every level keys them with its own column.
        let mut recs: Vec<u128> = (0..n).map(u128::from).collect();

        // `segments` holds one record range per node of the *previous*
        // level (one synthetic root segment for level 0). While
        // emitting level-l values we simultaneously learn the child
        // spans of the level-(l-1) nodes, because each parent's
        // children are emitted contiguously.
        let mut segments: Vec<(u32, u32)> = vec![(0, n)];
        for (l, &p) in positions.iter().enumerate() {
            for rec in &mut recs {
                let id = record_row(*rec);
                *rec = sort_record(rel.row(id)[p], id);
            }
            let level = &mut values[l];
            let mut next_segments: Vec<(u32, u32)> = Vec::with_capacity(segments.len());
            let mut parent_starts: Vec<u32> = Vec::with_capacity(segments.len() + 1);
            let mut count = 0u32;
            for &(seg_start, seg_end) in &segments {
                parent_starts.push(count);
                recs[seg_start as usize..seg_end as usize].sort_unstable();
                let mut i = seg_start;
                while i < seg_end {
                    let first = recs[i as usize];
                    let mut j = i + 1;
                    while j < seg_end && recs[j as usize] >> ROW_BITS == first >> ROW_BITS {
                        j += 1;
                    }
                    level.push(rel.row(record_row(first))[p]);
                    count += 1;
                    next_segments.push((i, j));
                    i = j;
                }
            }
            parent_starts.push(count);
            if l > 0 {
                starts[l - 1] = parent_starts;
            }
            segments = next_segments;
        }
        // Last level's spans point into `rows` directly.
        let mut leaf_starts: Vec<u32> = Vec::with_capacity(segments.len() + 1);
        leaf_starts.extend(segments.iter().map(|&(s, _)| s));
        leaf_starts.push(n);
        starts[depth - 1] = leaf_starts;

        Trie {
            positions: positions.to_vec(),
            values,
            starts,
            rows: recs.into_iter().map(record_row).collect(),
        }
    }

    /// Number of levels.
    #[inline]
    pub fn depth(&self) -> usize {
        self.positions.len()
    }

    /// The attribute positions per level.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Handle spanning the root's children (the distinct values of the
    /// first attribute).
    #[inline]
    pub fn root(&self) -> NodeHandle {
        NodeHandle {
            level: 0,
            start: 0,
            end: self.values[0].len() as u32,
        }
    }

    /// The `i`-th child value within `h` (absolute index: `h.start <= i <
    /// h.end`).
    #[inline]
    pub fn value_at(&self, h: NodeHandle, i: u32) -> Value {
        debug_assert!(i >= h.start && i < h.end);
        self.values[h.level as usize][i as usize]
    }

    /// All child values within `h`, sorted ascending.
    #[inline]
    pub fn child_values(&self, h: NodeHandle) -> &[Value] {
        &self.values[h.level as usize][h.start as usize..h.end as usize]
    }

    /// Descend into the `i`-th child of `h`, yielding the handle over
    /// *its* children. Only valid when `h.level + 1 < depth`.
    #[inline]
    pub fn descend(&self, h: NodeHandle, i: u32) -> NodeHandle {
        debug_assert!((h.level as usize) + 1 < self.depth());
        let s = &self.starts[h.level as usize];
        NodeHandle {
            level: h.level + 1,
            start: s[i as usize],
            end: s[i as usize + 1],
        }
    }

    /// The rows below the `i`-th child of `h`, valid only at the last
    /// level (`h.level + 1 == depth`).
    #[inline]
    pub fn leaf_rows(&self, h: NodeHandle, i: u32) -> &[RowId] {
        debug_assert_eq!((h.level as usize) + 1, self.depth());
        let s = &self.starts[h.level as usize];
        &self.rows[s[i as usize] as usize..s[i as usize + 1] as usize]
    }

    /// All rows below the node whose children `h` spans (any level): the
    /// contiguous run of `rows` covered by `h`'s span.
    pub fn rows_under(&self, h: NodeHandle) -> &[RowId] {
        if h.is_empty() {
            return &[];
        }
        // Walk down the leftmost/rightmost paths to find row bounds.
        let (mut level, mut lo, mut hi) = (h.level as usize, h.start, h.end);
        while level + 1 < self.depth() {
            let s = &self.starts[level];
            lo = s[lo as usize];
            hi = s[hi as usize]; // end-exclusive: start of the node after
            level += 1;
        }
        let s = &self.starts[level];
        &self.rows[s[lo as usize] as usize..s[hi as usize] as usize]
    }

    /// The rows below the `i`-th child of `h`, at **any** level: the
    /// last level answers directly from its leaf spans; inner levels
    /// descend once and cover the contiguous row run underneath. This
    /// is the emission primitive for joins consuming a trie *deeper*
    /// than the atom's variable count (a shared full-permutation index
    /// serving a prefix request).
    #[inline]
    pub fn rows_below(&self, h: NodeHandle, i: u32) -> &[RowId] {
        if (h.level as usize) + 1 == self.depth() {
            self.leaf_rows(h, i)
        } else {
            self.rows_under(self.descend(h, i))
        }
    }

    /// Estimated resident heap bytes of this trie (values, child-span
    /// offsets, sorted row ids, and the level/position bookkeeping) —
    /// the unit the index catalog's LRU budget is accounted in.
    pub fn memory_bytes(&self) -> usize {
        let values: usize = self
            .values
            .iter()
            .map(|v| v.len() * std::mem::size_of::<Value>())
            .sum();
        let starts: usize = self
            .starts
            .iter()
            .map(|s| s.len() * std::mem::size_of::<u32>())
            .sum();
        values
            + starts
            + self.rows.len() * std::mem::size_of::<RowId>()
            + self.positions.len() * std::mem::size_of::<usize>()
    }

    /// Find the child of `h` with exactly value `v`; returns its absolute
    /// index if present.
    #[inline]
    pub fn find(&self, h: NodeHandle, v: Value) -> Option<u32> {
        let vals = self.child_values(h);
        vals.binary_search(&v).ok().map(|off| h.start + off as u32)
    }

    /// Galloping seek: the smallest absolute index `i >= from` with
    /// `value_at(h, i) >= v`, or `h.end` if none. `from` must satisfy
    /// `h.start <= from <= h.end`.
    pub fn seek(&self, h: NodeHandle, from: u32, v: Value) -> u32 {
        let vals = &self.values[h.level as usize][..h.end as usize];
        // At most `h.end`, which is a `u32`.
        gallop(vals, from as usize, v) as u32
    }
}

/// Galloping search in a sorted slice: the smallest index `i >= from`
/// with `vals[i] >= v`, or `vals.len()` if none (`from <= vals.len()`).
/// Costs `O(log distance)`, so a leapfrog intersection pays for how far
/// it skips rather than for how long the lists are. [`Trie::seek`] is
/// this over one node's children; the join kernel calls it on the
/// [`Trie::child_values`] slices it walks.
#[inline]
pub fn gallop(vals: &[Value], from: usize, v: Value) -> usize {
    let mut lo = from;
    let end = vals.len();
    if lo >= end || vals[lo] >= v {
        return lo;
    }
    // Exponential probe then binary search within the bracket.
    let mut step = 1usize;
    let mut hi = lo + 1;
    while hi < end && vals[hi] < v {
        lo = hi;
        step <<= 1;
        hi = (lo + step).min(end);
    }
    // Invariant: vals[lo] < v, and (hi == end or vals[hi] >= v).
    lo + 1 + vals[lo + 1..hi].partition_point(|x| *x < v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::schema::Schema;

    fn rel() -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["a", "b"]));
        for (a, bb) in [(2, 5), (1, 4), (1, 2), (2, 5), (3, 1), (1, 9)] {
            b.push_ints(&[a, bb], 0.0);
        }
        b.finish()
    }

    #[test]
    fn root_values_sorted_distinct() {
        let r = rel();
        let t = Trie::build(&r, &[0, 1]);
        let vals: Vec<i64> = t.child_values(t.root()).iter().map(|v| v.int()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn descend_and_leaves() {
        let r = rel();
        let t = Trie::build(&r, &[0, 1]);
        let root = t.root();
        let i = t.find(root, Value::Int(1)).unwrap();
        let child = t.descend(root, i);
        let bs: Vec<i64> = t.child_values(child).iter().map(|v| v.int()).collect();
        assert_eq!(bs, vec![2, 4, 9]);
        let j = t.find(child, Value::Int(4)).unwrap();
        let rows = t.leaf_rows(child, j);
        assert_eq!(rows.len(), 1);
        assert_eq!(r.row(rows[0]), &[Value::Int(1), Value::Int(4)]);
    }

    #[test]
    fn duplicate_rows_share_leaf() {
        let r = rel();
        let t = Trie::build(&r, &[0, 1]);
        let root = t.root();
        let i = t.find(root, Value::Int(2)).unwrap();
        let child = t.descend(root, i);
        let j = t.find(child, Value::Int(5)).unwrap();
        assert_eq!(t.leaf_rows(child, j).len(), 2);
    }

    #[test]
    fn seek_gallops() {
        let r = rel();
        let t = Trie::build(&r, &[1, 0]); // order by b then a
        let root = t.root();
        let bs: Vec<i64> = t.child_values(root).iter().map(|v| v.int()).collect();
        assert_eq!(bs, vec![1, 2, 4, 5, 9]);
        assert_eq!(t.seek(root, 0, Value::Int(3)), 2); // first >= 3 is 4
        assert_eq!(t.seek(root, 0, Value::Int(1)), 0);
        assert_eq!(t.seek(root, 3, Value::Int(5)), 3);
        assert_eq!(t.seek(root, 0, Value::Int(10)), root.end);
    }

    #[test]
    fn rows_under_counts_all() {
        let r = rel();
        let t = Trie::build(&r, &[0, 1]);
        assert_eq!(t.rows_under(t.root()).len(), r.len());
        let root = t.root();
        let i = t.find(root, Value::Int(1)).unwrap();
        let child = t.descend(root, i);
        assert_eq!(t.rows_under(child).len(), 3);
    }

    #[test]
    fn rows_below_matches_leaf_rows_and_subtrees() {
        let r = rel();
        let t = Trie::build(&r, &[0, 1]);
        let root = t.root();
        // Inner level: rows below value 1 at the root = the 3 rows with
        // a = 1, exactly what descending + rows_under reports.
        let i = t.find(root, Value::Int(1)).unwrap();
        assert_eq!(t.rows_below(root, i).len(), 3);
        assert_eq!(t.rows_below(root, i), t.rows_under(t.descend(root, i)));
        // Last level: identical to leaf_rows.
        let child = t.descend(root, i);
        let j = t.find(child, Value::Int(4)).unwrap();
        assert_eq!(t.rows_below(child, j), t.leaf_rows(child, j));
        // Single-level trie: rows_below == leaf_rows at the root.
        let t1 = Trie::build(&r, &[0]);
        let k = t1.find(t1.root(), Value::Int(2)).unwrap();
        assert_eq!(t1.rows_below(t1.root(), k).len(), 2);
    }

    #[test]
    fn memory_bytes_matches_known_shape() {
        // rel(): 6 rows over (a, b); trie [0, 1] has level-0 values
        // [1, 2, 3] and level-1 values [2, 4, 9 | 5 | 1] (5 distinct
        // per-parent), so starts are 3+1 and 5+1 offsets.
        let r = rel();
        let t = Trie::build(&r, &[0, 1]);
        let value = std::mem::size_of::<Value>();
        let expect = (3 + 5) * value + (4 + 6) * 4 + 6 * 4 + 2 * std::mem::size_of::<usize>();
        assert_eq!(t.memory_bytes(), expect);
        // Single-level trie over column 0: values [1, 2, 3], 4 offsets.
        let t1 = Trie::build(&r, &[0]);
        let expect1 = 3 * value + 4 * 4 + 6 * 4 + std::mem::size_of::<usize>();
        assert_eq!(t1.memory_bytes(), expect1);
        // A deeper trie over the same rows can only grow the estimate.
        assert!(t.memory_bytes() > t1.memory_bytes());
    }

    #[test]
    fn single_level_trie() {
        let r = rel();
        let t = Trie::build(&r, &[0]);
        let root = t.root();
        assert_eq!(t.depth(), 1);
        let i = t.find(root, Value::Int(1)).unwrap();
        assert_eq!(t.leaf_rows(root, i).len(), 3);
    }

    #[test]
    fn reversed_attribute_order() {
        let r = rel();
        let t = Trie::build(&r, &[1, 0]);
        let root = t.root();
        let i = t.find(root, Value::Int(5)).unwrap();
        let child = t.descend(root, i);
        let as_: Vec<i64> = t.child_values(child).iter().map(|v| v.int()).collect();
        assert_eq!(as_, vec![2]);
        let j = t.find(child, Value::Int(2)).unwrap();
        assert_eq!(t.leaf_rows(child, j).len(), 2);
    }
}
