//! Weighted in-memory relations.
//!
//! Rows are stored row-major in one flat `Vec<Value>` (arity stride) with a
//! parallel `Vec<Weight>`; this keeps a full-table scan — the access
//! pattern that dominates Yannakakis, semi-joins, and DP preprocessing —
//! a single linear sweep over two contiguous buffers.
//!
//! A [`Relation`] is a cheap **handle** over an `Arc`-shared immutable
//! payload: `clone()` is a refcount bump, so catalogs, engines, and
//! prepared queries can all hold "the same" relation without copying
//! `O(n)` tuple data. The in-place editing API (`retain`, sorts,
//! `dedup`) is copy-on-write: the first mutation of a *shared* handle
//! clones the payload once ([`Arc::make_mut`]); an unshared handle
//! mutates directly, exactly as the pre-`Arc` representation did.

use crate::schema::Schema;
use crate::value::{Value, Weight};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide source of payload identities. Every distinct payload
/// allocation (builder `finish`, copy-on-write clone, permutation)
/// gets a fresh id, so an id uniquely names immutable tuple data for
/// the lifetime of the process — the index-catalog key that can never
/// alias across catalog snapshots (unlike `Arc` pointer identity,
/// which an allocator may reuse).
static NEXT_PAYLOAD_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_payload_id() -> u64 {
    NEXT_PAYLOAD_ID.fetch_add(1, Ordering::Relaxed)
}

/// Index of a row within a [`Relation`]. `u32` keeps per-row bookkeeping
/// structures (groups, pointers) compact; 4 billion rows per relation is
/// far beyond in-memory scale.
pub type RowId = u32;

/// The most rows a relation holds: its row count is a [`RowId`] too, so
/// ids `0..len` and `len` itself convert losslessly. The catalog refuses
/// an append past it
/// ([`StorageError::TooManyRows`](crate::StorageError::TooManyRows)),
/// so no flattened or compacted relation exceeds it.
pub const MAX_ROWS: usize = RowId::MAX as usize;

/// The owned tuple data behind a [`Relation`] handle.
#[derive(Debug)]
struct Payload {
    /// Unique identity of this allocation (see [`fresh_payload_id`]).
    /// Not part of equality: two payloads with equal tuples but
    /// different ids still compare equal.
    id: u64,
    schema: Schema,
    /// Row-major values, `len = rows * arity`.
    data: Vec<Value>,
    weights: Vec<Weight>,
}

impl Payload {
    fn new(schema: Schema, data: Vec<Value>, weights: Vec<Weight>) -> Self {
        Payload {
            id: fresh_payload_id(),
            schema,
            data,
            weights,
        }
    }
}

impl Clone for Payload {
    /// Copy-on-write divergence point: the clone holds different (soon
    /// to be mutated) data, so it gets a fresh identity.
    fn clone(&self) -> Self {
        Payload {
            id: fresh_payload_id(),
            schema: self.schema.clone(),
            data: self.data.clone(),
            weights: self.weights.clone(),
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.data == other.data && self.weights == other.weights
    }
}
impl Eq for Payload {}

/// An immutable weighted relation (bag semantics; call
/// [`Relation::dedup`] for set semantics).
///
/// Cloning is `O(1)` (shared `Arc` payload); mutating methods are
/// copy-on-write. Two handles produced by `clone()` satisfy
/// [`Relation::shares_payload`] until one of them is mutated.
#[derive(Debug, Clone, Eq)]
pub struct Relation {
    payload: Arc<Payload>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // Handles over the same payload are equal without scanning.
        Arc::ptr_eq(&self.payload, &other.payload) || *self.payload == *other.payload
    }
}

impl Relation {
    /// An empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            payload: Arc::new(Payload::new(schema, Vec::new(), Vec::new())),
        }
    }

    /// The unique identity of this relation's immutable payload. Two
    /// handles share an id iff they share tuple storage
    /// ([`Relation::shares_payload`]); any mutation that diverges the
    /// payload (copy-on-write, permutation) produces a fresh id. Ids
    /// are never reused within a process — the aliasing-safe key the
    /// index catalog caches tries under.
    #[inline]
    pub fn payload_id(&self) -> u64 {
        self.payload.id
    }

    /// True iff `self` and `other` are handles over the *same* shared
    /// payload (refcount siblings) — the zero-copy sharing check used
    /// by tests and diagnostics.
    #[inline]
    pub fn shares_payload(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.payload, &other.payload)
    }

    /// Number of handles (strong references) currently sharing this
    /// relation's payload — diagnostics for the serving layer.
    #[inline]
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.payload)
    }

    /// Mutable access to the payload, cloning it first iff shared
    /// (copy-on-write seam of every in-place editing method).
    #[inline]
    fn make_mut(&mut self) -> &mut Payload {
        Arc::make_mut(&mut self.payload)
    }

    /// Build from parallel row/weight vectors (test & generator helper).
    pub fn from_rows<R: AsRef<[Value]>>(schema: Schema, rows: &[R], weights: &[Weight]) -> Self {
        assert_eq!(rows.len(), weights.len(), "rows/weights length mismatch");
        let mut b = RelationBuilder::new(schema);
        for (r, &w) in rows.iter().zip(weights) {
            b.push(r.as_ref(), w);
        }
        b.finish()
    }

    /// Build an unweighted relation (all weights zero).
    pub fn from_unweighted_rows<R: AsRef<[Value]>>(schema: Schema, rows: &[R]) -> Self {
        let weights = vec![Weight::ZERO; rows.len()];
        Relation::from_rows(schema, rows, &weights)
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.payload.schema
    }

    /// Arity (number of attributes).
    #[inline]
    pub fn arity(&self) -> usize {
        self.payload.schema.arity()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.payload.weights.len()
    }

    /// True iff the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payload.weights.is_empty()
    }

    /// Number of rows as the exclusive bound of the relation's row ids.
    ///
    /// # Panics
    ///
    /// If the relation holds more than [`MAX_ROWS`] rows, which only a
    /// builder fed that many rows directly can produce.
    #[inline]
    fn row_count(&self) -> RowId {
        RowId::try_from(self.len()).expect("a relation holds at most MAX_ROWS rows")
    }

    /// The values of row `id`.
    #[inline]
    pub fn row(&self, id: RowId) -> &[Value] {
        let a = self.arity();
        let start = id as usize * a;
        &self.payload.data[start..start + a]
    }

    /// The weight of row `id`.
    #[inline]
    pub fn weight(&self, id: RowId) -> Weight {
        self.payload.weights[id as usize]
    }

    /// All weights (parallel to row ids).
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.payload.weights
    }

    /// Iterate `(RowId, &[Value], Weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[Value], Weight)> + '_ {
        (0..self.row_count())
            .zip(&self.payload.weights)
            .map(move |(id, &w)| (id, self.row(id), w))
    }

    /// Extract the sub-tuple of row `id` at `positions` into `out`.
    #[inline]
    pub fn key_into(&self, id: RowId, positions: &[usize], out: &mut Vec<Value>) {
        out.clear();
        let row = self.row(id);
        out.extend(positions.iter().map(|&p| row[p]));
    }

    /// Extract the sub-tuple of row `id` at `positions` as a fresh vec.
    #[inline]
    pub fn key(&self, id: RowId, positions: &[usize]) -> Vec<Value> {
        let row = self.row(id);
        positions.iter().map(|&p| row[p]).collect()
    }

    /// Keep only rows whose id passes `pred` (used by semi-join reducers).
    /// Preserves row order; returns the number of retained rows.
    ///
    /// Copy-on-write: the payload is cloned only when at least one row
    /// is actually dropped, so an all-pass reduction of a shared handle
    /// (the common case on globally consistent inputs) copies nothing.
    pub fn retain<F: FnMut(RowId) -> bool>(&mut self, mut pred: F) -> usize {
        let n = self.row_count();
        // First pass: find the first dropped row without touching data.
        let Some(first_drop) = (0..n).find(|&id| !pred(id)) else {
            return self.len();
        };
        let a = self.arity();
        let p = self.make_mut();
        let mut out = first_drop as usize;
        for id in (first_drop + 1)..n {
            if pred(id) {
                let (src, dst) = (id as usize * a, out * a);
                for j in 0..a {
                    p.data[dst + j] = p.data[src + j];
                }
                p.weights[out] = p.weights[id as usize];
                out += 1;
            }
        }
        p.data.truncate(out * a);
        p.weights.truncate(out);
        out
    }

    /// Sort rows lexicographically by the attributes at `positions`
    /// (stable within equal keys by original order).
    pub fn sort_by_positions(&mut self, positions: &[usize]) {
        let mut order: Vec<RowId> = (0..self.row_count()).collect();
        order.sort_by(|&x, &y| {
            let rx = self.row(x);
            let ry = self.row(y);
            for &p in positions {
                match rx[p].cmp(&ry[p]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            x.cmp(&y)
        });
        self.permute(&order);
    }

    /// Sort rows by weight ascending.
    pub fn sort_by_weight(&mut self) {
        let mut order: Vec<RowId> = (0..self.row_count()).collect();
        order.sort_by(|&x, &y| self.weight(x).cmp(&self.weight(y)).then(x.cmp(&y)));
        self.permute(&order);
    }

    /// Reorder rows so new row i = old row order[i].
    fn permute(&mut self, order: &[RowId]) {
        let a = self.arity();
        let mut data = Vec::with_capacity(self.payload.data.len());
        let mut weights = Vec::with_capacity(self.payload.weights.len());
        for &o in order {
            let s = o as usize * a;
            data.extend_from_slice(&self.payload.data[s..s + a]);
            weights.push(self.payload.weights[o as usize]);
        }
        // Fresh buffers replace the payload wholesale: no point in a
        // copy-on-write clone that would be overwritten immediately.
        self.payload = Arc::new(Payload::new(self.payload.schema.clone(), data, weights));
    }

    /// Remove duplicate rows (same values), keeping the *lightest* weight
    /// for each distinct tuple. Sorts the relation by all attributes.
    pub fn dedup(&mut self) {
        let positions: Vec<usize> = (0..self.arity()).collect();
        // Sort by values then weight so the lightest duplicate comes first.
        let n = self.len();
        let mut order: Vec<RowId> = (0..self.row_count()).collect();
        order.sort_by(|&x, &y| {
            let rx = self.row(x);
            let ry = self.row(y);
            for &p in &positions {
                match rx[p].cmp(&ry[p]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            self.weight(x).cmp(&self.weight(y))
        });
        self.permute(&order);
        let a = self.arity();
        // permute() just installed a fresh unshared payload, so this
        // make_mut never clones.
        let p = self.make_mut();
        let mut out = 0usize;
        for i in 0..n {
            let dup = out > 0 && {
                let prev = &p.data[(out - 1) * a..out * a];
                let cur = &p.data[i * a..(i + 1) * a];
                prev == cur
            };
            if !dup {
                if out != i {
                    let (src, dst) = (i * a, out * a);
                    for j in 0..a {
                        p.data[dst + j] = p.data[src + j];
                    }
                    p.weights[out] = p.weights[i];
                }
                out += 1;
            }
        }
        p.data.truncate(out * a);
        p.weights.truncate(out);
    }

    /// Project onto the attributes at `positions` (weights carried over;
    /// duplicates kept — follow with [`Relation::dedup`] for set
    /// semantics).
    pub fn project(&self, positions: &[usize]) -> Relation {
        let schema = Schema::new(positions.iter().map(|&p| self.schema().attr(p).to_string()));
        let mut b = RelationBuilder::new(schema);
        let mut key = Vec::with_capacity(positions.len());
        for i in 0..self.row_count() {
            self.key_into(i, positions, &mut key);
            b.push(&key, self.weight(i));
        }
        b.finish()
    }

    /// Rename attributes (same order, new names).
    pub fn with_schema(mut self, schema: Schema) -> Relation {
        assert_eq!(schema.arity(), self.payload.schema.arity());
        self.make_mut().schema = schema;
        self
    }

    /// Concatenate `parts` into one fresh relation: all rows of
    /// `parts[0]`, then all rows of `parts[1]`, … — the row-order
    /// contract delta compaction relies on. Takes the first part's
    /// schema; every part must have the same arity.
    ///
    /// A single part is returned as a shared handle (refcount bump,
    /// no copy).
    ///
    /// # Panics
    ///
    /// If `parts` is empty or arities differ (callers — the delta
    /// layer — have already schema-checked appends).
    pub fn concat(parts: &[Relation]) -> Relation {
        assert!(!parts.is_empty(), "concat of zero relations");
        if parts.len() == 1 {
            return parts[0].clone();
        }
        let schema = parts[0].schema().clone();
        let arity = schema.arity();
        let rows: usize = parts.iter().map(Relation::len).sum();
        let mut data = Vec::with_capacity(rows * arity);
        let mut weights = Vec::with_capacity(rows);
        for p in parts {
            assert_eq!(p.arity(), arity, "concat arity mismatch");
            data.extend_from_slice(&p.payload.data);
            weights.extend_from_slice(&p.payload.weights);
        }
        Relation {
            payload: Arc::new(Payload::new(schema, data, weights)),
        }
    }

    /// Total bytes of payload (diagnostics).
    pub fn payload_bytes(&self) -> usize {
        self.payload.data.len() * std::mem::size_of::<Value>()
            + self.payload.weights.len() * std::mem::size_of::<Weight>()
    }
}

/// Incremental construction of a [`Relation`].
#[derive(Debug)]
pub struct RelationBuilder {
    schema: Schema,
    data: Vec<Value>,
    weights: Vec<Weight>,
}

impl RelationBuilder {
    /// Start building a relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        RelationBuilder {
            schema,
            data: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Start building with row-capacity preallocated.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let arity = schema.arity();
        RelationBuilder {
            schema,
            data: Vec::with_capacity(rows * arity),
            weights: Vec::with_capacity(rows),
        }
    }

    /// Append a row. Panics if the arity mismatches.
    #[inline]
    pub fn push(&mut self, row: &[Value], weight: Weight) {
        debug_assert_eq!(row.len(), self.schema.arity(), "row arity mismatch");
        self.data.extend_from_slice(row);
        self.weights.push(weight);
    }

    /// Append an integer row (graph workload convenience).
    #[inline]
    pub fn push_ints(&mut self, row: &[i64], weight: f64) {
        debug_assert_eq!(row.len(), self.schema.arity(), "row arity mismatch");
        self.data.extend(row.iter().map(|&v| Value::Int(v)));
        self.weights.push(Weight::new(weight));
    }

    /// Rows so far.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True iff no rows yet.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Finish and return the relation (payload moves behind its `Arc`;
    /// no copy).
    pub fn finish(self) -> Relation {
        Relation {
            payload: Arc::new(Payload::new(self.schema, self.data, self.weights)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["a", "b"]));
        b.push_ints(&[1, 10], 0.5);
        b.push_ints(&[2, 20], 0.25);
        b.push_ints(&[1, 30], 1.0);
        b.finish()
    }

    #[test]
    fn basic_access() {
        let r = rel();
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(0), &[Value::Int(1), Value::Int(10)]);
        assert_eq!(r.weight(1), Weight::new(0.25));
    }

    #[test]
    fn key_extraction() {
        let r = rel();
        assert_eq!(r.key(2, &[1]), vec![Value::Int(30)]);
        let mut out = Vec::new();
        r.key_into(0, &[1, 0], &mut out);
        assert_eq!(out, vec![Value::Int(10), Value::Int(1)]);
    }

    #[test]
    fn retain_filters_in_place() {
        let mut r = rel();
        let kept = r.retain(|id| id != 1);
        assert_eq!(kept, 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1), &[Value::Int(1), Value::Int(30)]);
    }

    #[test]
    fn sort_by_positions_orders_rows() {
        let mut r = rel();
        r.sort_by_positions(&[0, 1]);
        assert_eq!(r.row(0), &[Value::Int(1), Value::Int(10)]);
        assert_eq!(r.row(1), &[Value::Int(1), Value::Int(30)]);
        assert_eq!(r.row(2), &[Value::Int(2), Value::Int(20)]);
    }

    #[test]
    fn sort_by_weight_orders_rows() {
        let mut r = rel();
        r.sort_by_weight();
        assert_eq!(r.weight(0), Weight::new(0.25));
        assert_eq!(r.weight(2), Weight::new(1.0));
    }

    #[test]
    fn dedup_keeps_lightest() {
        let mut b = RelationBuilder::new(Schema::new(["a"]));
        b.push_ints(&[5], 2.0);
        b.push_ints(&[5], 1.0);
        b.push_ints(&[6], 3.0);
        let mut r = b.finish();
        r.dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(r.weight(0), Weight::new(1.0));
    }

    #[test]
    fn project_carries_weights() {
        let r = rel();
        let p = r.project(&[1]);
        assert_eq!(p.schema().attrs(), &["b".to_string()]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.weight(2), Weight::new(1.0));
    }

    #[test]
    fn iter_matches_access() {
        let r = rel();
        let collected: Vec<_> = r.iter().map(|(id, row, w)| (id, row.to_vec(), w)).collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[1].1, vec![Value::Int(2), Value::Int(20)]);
        assert_eq!(collected[1].2, Weight::new(0.25));
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(Schema::new(["x"]));
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn clone_is_a_shared_handle_until_mutation() {
        let r = rel();
        let mut c = r.clone();
        assert!(r.shares_payload(&c));
        assert_eq!(r.handle_count(), 2);
        assert_eq!(r, c);
        // A dropping retain triggers copy-on-write: the original handle
        // is untouched.
        c.retain(|id| id != 0);
        assert!(!r.shares_payload(&c));
        assert_eq!(r.len(), 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn all_pass_retain_preserves_sharing() {
        let r = rel();
        let mut c = r.clone();
        assert_eq!(c.retain(|_| true), 3);
        assert!(
            r.shares_payload(&c),
            "no row dropped -> no copy-on-write clone"
        );
    }

    #[test]
    fn payload_id_tracks_sharing_and_divergence() {
        let r = rel();
        let mut c = r.clone();
        assert_eq!(r.payload_id(), c.payload_id(), "clone shares identity");
        // All-pass retain keeps the shared payload (and its id).
        c.retain(|_| true);
        assert_eq!(r.payload_id(), c.payload_id());
        // A dropping retain diverges: fresh payload, fresh id.
        c.retain(|id| id != 0);
        assert_ne!(r.payload_id(), c.payload_id());
        // Equality ignores identity.
        let twin = rel();
        assert_ne!(r.payload_id(), twin.payload_id());
        assert_eq!(r, twin);
    }

    #[test]
    fn a_dropped_payloads_id_is_never_handed_out_again() {
        // The plan cache's freshness rule rests on this: a relation
        // built after a payload is freed — likely into the very same
        // allocation — never carries the freed payload's id.
        let r = rel();
        let dropped = r.payload_id();
        drop(r);
        for _ in 0..64 {
            let fresh = rel();
            assert!(fresh.payload_id() > dropped);
            let copy = fresh.project(&[0, 1]);
            assert!(copy.payload_id() > dropped);
        }
    }

    #[test]
    fn concat_preserves_part_order() {
        let r = rel();
        let single = Relation::concat(std::slice::from_ref(&r));
        assert!(single.shares_payload(&r), "single-part concat is a handle");

        let mut b = RelationBuilder::new(Schema::new(["a", "b"]));
        b.push_ints(&[9, 90], 0.125);
        let tail = b.finish();
        let cat = Relation::concat(&[r.clone(), tail]);
        assert_eq!(cat.len(), 4);
        assert_eq!(cat.row(0), r.row(0));
        assert_eq!(cat.row(3), &[Value::Int(9), Value::Int(90)]);
        assert_eq!(cat.weight(3), Weight::new(0.125));
        assert_ne!(cat.payload_id(), r.payload_id());
    }

    #[test]
    fn sort_on_shared_handle_leaves_sibling_intact() {
        let r = rel();
        let mut c = r.clone();
        c.sort_by_weight();
        assert_eq!(r.weight(0), Weight::new(0.5), "original order preserved");
        assert_eq!(c.weight(0), Weight::new(0.25));
        assert!(!r.shares_payload(&c));
    }
}
