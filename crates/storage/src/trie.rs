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
//! # Build
//!
//! [`Trie::build`] never compares `Value`s, and sorts once. A first
//! pass over the key columns takes each column's range of order keys
//! ([`Value`]'s `(tag, key)` pair); when every column holds one type
//! and the bits of the columns' spans plus the bits of the last row
//! index are at most 64, each row becomes one `u64` sort record,
//!
//! ```text
//! key₀ − lo₀ | key₁ − lo₁ | … | row index
//! ```
//!
//! level 0 on top, a constant column taking no bits. The records are
//! sorted as plain integers — by `sort_unstable` below 160 rows, by
//! least-significant-digit counting passes of at most 11 bits over the
//! key bits from there on. The row bits are never sorted on: records
//! start in row order and counting passes are stable, so equal keys
//! keep it. One scan over the sorted records then emits every level's
//! `values` and `starts` and the `rows`: a record opens new nodes from
//! the level whose field holds the highest bit in which it differs
//! from its predecessor, a node's value is its field plus the column's
//! `lo`, and each level's nodes are counted before its vectors are
//! allocated. The build holds 16 bytes a row beyond its output at the
//! most (the records and the counting passes' scratch, freed before
//! emission).
//!
//! Rows that do not fit — a key column mixing types, or more than 64
//! bits in all — are built level by level over `u128` records
//! (`tag:8 | key:64 | row:32`): every level re-keys the records with
//! its column, sorts each parent's segment and scans it for equal-key
//! runs. The data picks the path, in [`Trie::build_rows`] alone, and
//! the two produce the same trie field for field
//! (`tests/kernel_contract.rs`).

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

/// Bits of a per-level sort record holding the row's index.
const ROW_BITS: u32 = RowId::BITS;

/// The `u128` the per-level build sorts: `value`'s order-preserving
/// `(tag, key)` pair above the row's index — `tag:8 | key:64 | row:32`
/// — so integer order on records is `(value, row)` order and equal
/// values share everything above [`ROW_BITS`].
#[inline]
fn sort_record(value: Value, row: RowId) -> u128 {
    let (tag, key) = value.order_key();
    (tag as u128) << (64 + ROW_BITS) | (key as u128) << ROW_BITS | row as u128
}

/// The row index in a per-level sort record's low bits.
#[inline]
fn record_row(rec: u128) -> RowId {
    // Truncation is the point: the index is the low `ROW_BITS`.
    rec as RowId
}

/// Bits needed to hold `span`.
#[inline]
fn bit_width(span: u64) -> u32 {
    u64::BITS - span.leading_zeros()
}

/// A count of a trie's rows, or of one level's nodes, as a span offset.
#[inline]
fn offset(count: usize) -> u32 {
    debug_assert!(u32::try_from(count).is_ok());
    // At most the build's row count, which was checked to fit a `RowId`.
    count as u32
}

/// One level's field of a packed sort record: the column's keys as
/// offsets from its smallest.
#[derive(Clone, Copy)]
struct Field {
    /// The order tag every value of the column has.
    tag: u8,
    /// The column's smallest order key.
    lo: u64,
    /// Bit offset of the field in a record (0 for an empty field).
    shift: u32,
    /// The field's bits, right-aligned; 0 for a constant column.
    mask: u64,
}

impl Field {
    /// `value` (a value of this field's column) as its bits of a record.
    #[inline]
    fn pack(&self, value: Value) -> u64 {
        (value.order_key().1 - self.lo) << self.shift
    }

    /// The value whose field `rec` holds.
    #[inline]
    fn value(&self, rec: u64) -> Value {
        Value::from_order_key(self.tag, self.lo + (rec >> self.shift & self.mask))
    }
}

/// How one build's rows pack into `u64` sort records: level 0's field
/// on top, the last level's above the row index in the low `row_bits`.
struct PackedLayout {
    fields: Vec<Field>,
    row_bits: u32,
    /// Bits in use: the fields' and the row index's.
    bits: u32,
}

impl PackedLayout {
    /// The layout of `rows` on `positions`, or `None` when a column
    /// mixes types or a record needs more than 64 bits. One column at
    /// a time, so the running range stays in registers.
    fn of(rel: &Relation, positions: &[usize], rows: Rows<'_>) -> Option<Self> {
        let mut fields = Vec::with_capacity(positions.len());
        for &p in positions {
            let (mut tags, mut keys) = (0u8, (u64::MAX, u64::MIN));
            for i in 0..rows.len() {
                let (tag, key) = rel.row(rows.id(i))[p].order_key();
                tags |= 1 << tag;
                keys = (keys.0.min(key), keys.1.max(key));
            }
            if tags.count_ones() > 1 {
                return None;
            }
            // No rows leave the range inside out: an empty field.
            let span = keys.1.saturating_sub(keys.0);
            fields.push(Field {
                // The one tag seen (8 with no rows, and then never read).
                tag: tags.trailing_zeros() as u8,
                lo: keys.0,
                shift: 0,
                mask: u64::MAX.checked_shr(span.leading_zeros()).unwrap_or(0),
            });
        }
        let row_bits = bit_width(u64::from(rows.len().saturating_sub(1)));
        let mut bits = row_bits;
        for field in fields.iter_mut().rev() {
            let width = bit_width(field.mask);
            if width > 0 {
                field.shift = bits;
            }
            bits += width;
        }
        (bits <= u64::BITS).then_some(PackedLayout {
            fields,
            row_bits,
            bits,
        })
    }
}

/// The rows a build sorts, by index: every row of the relation, or the
/// listed ones.
#[derive(Clone, Copy)]
enum Rows<'a> {
    All(RowId),
    Listed(&'a [RowId]),
}

impl Rows<'_> {
    /// Every row of `rel`; panics if a [`RowId`] cannot address them.
    fn all(rel: &Relation) -> Self {
        Rows::All(RowId::try_from(rel.len()).expect("a relation's rows are addressable by RowId"))
    }

    /// How many rows.
    #[inline]
    fn len(self) -> RowId {
        match self {
            Rows::All(n) => n,
            Rows::Listed(ids) => {
                RowId::try_from(ids.len()).expect("the listed rows are countable by RowId")
            }
        }
    }

    /// The relation's id of row `i`.
    #[inline]
    fn id(self, i: RowId) -> RowId {
        match self {
            Rows::All(_) => i,
            Rows::Listed(ids) => ids[i as usize],
        }
    }
}

/// Below this many rows the packed records are sorted by comparison;
/// from it on, by counting passes. Measured on two 7-bit columns (PR 22
/// in CHANGES.md): a tie at 128 rows, the counting passes ahead from
/// 192.
const RADIX_MIN_ROWS: usize = 160;

/// Most bits one counting pass sorts on: 2¹¹ counters stay in L1.
const MAX_DIGIT_BITS: u32 = 11;

/// Sort packed records that start in row-index order. Only bits
/// `row_bits..bits` are sorted on: least-significant-digit counting
/// passes are stable, so equal keys keep the row order they came in.
fn sort_packed(recs: &mut Vec<u64>, row_bits: u32, bits: u32) {
    let key_bits = bits - row_bits;
    if key_bits == 0 {
        return; // every key is equal: row order is the order
    }
    if recs.len() < RADIX_MIN_ROWS {
        return recs.sort_unstable(); // records are distinct
    }
    let digit_bits = key_bits.div_ceil(key_bits.div_ceil(MAX_DIGIT_BITS));
    let mut scratch = vec![0u64; recs.len()];
    let mut counts = [0u32; 1 << MAX_DIGIT_BITS];
    for shift in (row_bits..bits).step_by(digit_bits as usize) {
        let mask = (1u64 << digit_bits.min(bits - shift)) - 1;
        let digit = |rec: u64| (rec >> shift & mask) as usize;
        let counts = &mut counts[..=mask as usize];
        counts.fill(0);
        for &rec in recs.iter() {
            counts[digit(rec)] += 1;
        }
        if counts[digit(recs[0])] as usize == recs.len() {
            continue; // one bucket: the pass would move nothing
        }
        let mut next = 0;
        for count in counts.iter_mut() {
            next += std::mem::replace(count, next);
        }
        for &rec in recs.iter() {
            let at = &mut counts[digit(rec)];
            scratch[*at as usize] = rec;
            *at += 1;
        }
        std::mem::swap(recs, &mut scratch);
    }
}

/// A materialized sorted trie over a relation (see module docs).
#[derive(Debug, PartialEq, Eq)]
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
    /// `positions` (a permutation or subset of the relation's columns):
    /// [`Trie::build_rows`] over every row.
    ///
    /// # Panics
    ///
    /// If `positions` is empty or `rel` has more rows than a [`RowId`]
    /// can address.
    pub fn build(rel: &Relation, positions: &[usize]) -> Self {
        Self::build_from(rel, positions, Rows::all(rel))
    }

    /// Build a trie over the rows of `rel` listed in `rows`, with one
    /// level per position in `positions`. The trie's rows are `rel`'s
    /// ids, sorted by `(positions…, place in rows)` — a sort costs the
    /// rows that are listed, not the rows that are there.
    ///
    /// Every row becomes one `u64` sort record when that fits — each
    /// level's value as an offset into its column's range of order
    /// keys, level 0 on top, above the row's place in `rows` — sorted
    /// once, and one scan emits every level; rows that do not fit go
    /// level by level over `u128` records (see the module docs). Which
    /// of the two ran cannot be told from the trie.
    ///
    /// # Panics
    ///
    /// If `positions` is empty, `rows` lists more rows than a
    /// [`RowId`] can count, or an id is out of `rel`'s bounds.
    pub fn build_rows(rel: &Relation, positions: &[usize], rows: &[RowId]) -> Self {
        Self::build_from(rel, positions, Rows::Listed(rows))
    }

    fn build_from(rel: &Relation, positions: &[usize], rows: Rows<'_>) -> Self {
        assert!(!positions.is_empty(), "trie needs at least one level");
        match PackedLayout::of(rel, positions, rows) {
            Some(layout) => Self::build_packed_from(rel, positions, rows, &layout),
            None => Self::build_per_level_from(rel, positions, rows),
        }
    }

    /// [`Trie::build`] by the packed `u64` records alone, or `None`
    /// when they do not fit. Public for the contract tests, which hold
    /// the two builds against each other.
    #[doc(hidden)]
    pub fn build_packed(rel: &Relation, positions: &[usize]) -> Option<Self> {
        let rows = Rows::all(rel);
        let layout = PackedLayout::of(rel, positions, rows)?;
        Some(Self::build_packed_from(rel, positions, rows, &layout))
    }

    /// [`Trie::build`] by the per-level `u128` records alone. Public
    /// for the contract tests, as [`Trie::build_packed`] is.
    #[doc(hidden)]
    pub fn build_per_level(rel: &Relation, positions: &[usize]) -> Self {
        Self::build_per_level_from(rel, positions, Rows::all(rel))
    }

    fn build_packed_from(
        rel: &Relation,
        positions: &[usize],
        rows: Rows<'_>,
        layout: &PackedLayout,
    ) -> Self {
        let fields = &layout.fields[..];
        let mut recs: Vec<u64> = (0..rows.len())
            .map(|i| {
                let row = rel.row(rows.id(i));
                let key = fields.iter().zip(positions).map(|(f, &p)| f.pack(row[p]));
                key.fold(u64::from(i), |rec, field| rec | field)
            })
            .collect();
        sort_packed(&mut recs, layout.row_bits, layout.bits);

        // The level at which a record opens its first new node, by the
        // leading zeros of its XOR with the predecessor: the field the
        // highest differing bit falls in, and no level when that bit
        // is of the row index. Records are distinct, so an XOR of zero
        // is free to mean the first record, which opens every level.
        let last = positions.len() - 1;
        let mut first_new = [last + 1; u64::BITS as usize + 1];
        first_new[u64::BITS as usize] = 0;
        for (l, f) in fields.iter().enumerate() {
            for bit in f.shift..f.shift + bit_width(f.mask) {
                first_new[(u64::BITS - 1 - bit) as usize] = l;
            }
        }
        let opens = |prev: u64, rec: u64| first_new[(prev ^ rec).leading_zeros() as usize];
        let first = recs.first().copied().unwrap_or(0);

        // One pass reads the sorted rows off the records and counts
        // every level's nodes, so each vector is allocated once.
        let row_mask = (1u64 << layout.row_bits) - 1;
        let mut nodes = vec![0usize; last + 2];
        let mut prev = first;
        let sorted: Vec<RowId> = (recs.iter())
            .map(|&rec| {
                nodes[opens(prev, rec)] += 1;
                prev = rec;
                // Masked down to a row index, which is below `rows.len()`.
                rows.id((rec & row_mask) as RowId)
            })
            .collect();
        for l in 1..=last {
            nodes[l] += nodes[l - 1];
        }

        let mut values: Vec<Vec<Value>> = Vec::with_capacity(last + 1);
        let mut starts: Vec<Vec<u32>> = Vec::with_capacity(last + 1);
        for &count in &nodes[..last] {
            values.push(Vec::with_capacity(count));
            starts.push(Vec::with_capacity(count + 1));
        }
        // The last level, where most records open a node, is written
        // without a branch: every record writes the slot after the
        // nodes so far, and only one that opens a node keeps it.
        let leaf = fields[last];
        let mut leaf_values = vec![Value::Int(0); nodes[last] + 1];
        let mut leaf_starts = vec![0u32; nodes[last] + 1];
        let mut leaves = 0;
        // Where the children of a new level-`l` node start: where the
        // next level stands now.
        let below = |values: &[Vec<Value>], leaves: usize, l: usize| match values.get(l + 1) {
            Some(next) => offset(next.len()),
            None => offset(leaves),
        };
        let mut prev = first;
        for (i, &rec) in recs.iter().enumerate() {
            let opened = opens(prev, rec);
            prev = rec;
            for l in opened..last {
                starts[l].push(below(&values, leaves, l));
                values[l].push(fields[l].value(rec));
            }
            leaf_values[leaves] = leaf.value(rec);
            leaf_starts[leaves] = offset(i);
            leaves += usize::from(opened <= last);
        }
        leaf_values.truncate(leaves);
        leaf_starts[leaves] = offset(recs.len());
        for (l, level) in starts.iter_mut().enumerate() {
            level.push(below(&values, leaves, l));
        }
        values.push(leaf_values);
        starts.push(leaf_starts);
        Trie {
            positions: positions.to_vec(),
            values,
            starts,
            rows: sorted,
        }
    }

    /// Rows are ordered level by level over `u128` sort records
    /// (`tag:8 | key:64 | row:32`, see `sort_record`): level `l`
    /// re-keys every record with its row's level-`l` value and sorts
    /// each level-`(l-1)` node's segment as plain integers, so
    /// equal-key runs — the level's distinct values and their child
    /// spans — fall out of the same pass. The row index in a record's
    /// low bits breaks ties.
    fn build_per_level_from(rel: &Relation, positions: &[usize], rows: Rows<'_>) -> Self {
        // The one checked bound: every id, span and offset below
        // counts rows or distinct values, so none exceeds `n`.
        let n = rows.len();
        let depth = positions.len();
        let mut values: Vec<Vec<Value>> = vec![Vec::new(); depth];
        let mut starts: Vec<Vec<u32>> = vec![Vec::new(); depth];
        // Row indexes first; every level keys them with its own column.
        let mut recs: Vec<u128> = (0..n).map(u128::from).collect();

        // `segments` holds one record range per node of the *previous*
        // level (one synthetic root segment for level 0). While
        // emitting level-l values we simultaneously learn the child
        // spans of the level-(l-1) nodes, because each parent's
        // children are emitted contiguously.
        let mut segments: Vec<(u32, u32)> = vec![(0, n)];
        for (l, &p) in positions.iter().enumerate() {
            for rec in &mut recs {
                let i = record_row(*rec);
                *rec = sort_record(rel.row(rows.id(i))[p], i);
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
                    level.push(rel.row(rows.id(record_row(first)))[p]);
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
            rows: (recs.into_iter())
                .map(|rec| rows.id(record_row(rec)))
                .collect(),
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
            end: offset(self.values[0].len()),
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
        vals.binary_search(&v).ok().map(|off| h.start + offset(off))
    }

    /// Galloping seek: the smallest absolute index `i >= from` with
    /// `value_at(h, i) >= v`, or `h.end` if none. `from` must satisfy
    /// `h.start <= from <= h.end`.
    pub fn seek(&self, h: NodeHandle, from: u32, v: Value) -> u32 {
        let vals = &self.values[h.level as usize][..h.end as usize];
        offset(gallop(vals, from as usize, v))
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
