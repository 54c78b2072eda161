//! Deterministic hash partitioning of relations into shard fragments.
//!
//! A relation is split into `n` *fragments* by hashing the full tuple
//! (every value in the row) with the process-stable Fx hasher: rows with
//! equal values always land on the same fragment — duplicates co-locate,
//! so bag semantics survive sharding — and the assignment depends only
//! on the tuple values, never on row order, payload identity, or any
//! per-process random state. Two catalogs partitioned independently
//! agree fragment-by-fragment.
//!
//! Weights are carried through unchanged and schemas are shared, so the
//! fragments of a relation are themselves ordinary [`Relation`]s that
//! every join algorithm accepts unmodified.

use crate::fxhash::FxHasher;
use crate::relation::{Relation, RelationBuilder};
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// The fragment (shard) index a row belongs to, in `0..shards`.
///
/// Deterministic in the row *values* only. `shards` must be non-zero.
#[inline]
pub fn shard_of_row(row: &[Value], shards: usize) -> usize {
    debug_assert!(shards > 0, "shard_of_row needs at least one shard");
    if shards == 1 {
        return 0;
    }
    let mut h = FxHasher::default();
    row.hash(&mut h);
    let bits = h.finish();
    // Fold the high bits in before reducing: Fx mixes upward, so the
    // top bits carry most of the entropy.
    ((bits ^ (bits >> 32)) % shards as u64) as usize
}

/// Split `rel` into `shards` fragments by full-row hash.
///
/// Every input row appears in exactly one fragment (same values, same
/// weight); concatenating the fragments is a permutation of the input.
/// Row order *within* a fragment preserves the input's relative order,
/// so the split is fully deterministic. Panics if `shards == 0`.
pub fn partition_relation(rel: &Relation, shards: usize) -> Vec<Relation> {
    assert!(shards > 0, "cannot partition into zero shards");
    if shards == 1 {
        return vec![rel.clone()];
    }
    let mut builders: Vec<RelationBuilder> = (0..shards)
        .map(|_| RelationBuilder::with_capacity(rel.schema().clone(), rel.len() / shards + 1))
        .collect();
    for (_, row, w) in rel.iter() {
        builders[shard_of_row(row, shards)].push(row, w);
    }
    builders.into_iter().map(RelationBuilder::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Weight;

    fn sample(n: i64) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["a", "b"]));
        for i in 0..n {
            b.push_ints(&[i, i * 7 % 13], (i % 5) as f64);
        }
        b.finish()
    }

    fn rows_of(r: &Relation) -> Vec<(Vec<Value>, Weight)> {
        r.iter().map(|(_, row, w)| (row.to_vec(), w)).collect()
    }

    #[test]
    fn fragments_partition_the_relation() {
        let r = sample(200);
        for shards in [2usize, 3, 8] {
            let parts = partition_relation(&r, shards);
            assert_eq!(parts.len(), shards);
            let mut merged: Vec<_> = parts.iter().flat_map(rows_of).collect();
            let mut original = rows_of(&r);
            merged.sort();
            original.sort();
            assert_eq!(merged, original, "fragments must union to the input");
        }
    }

    #[test]
    fn assignment_is_deterministic_and_value_based() {
        let r = sample(100);
        let a = partition_relation(&r, 4);
        let b = partition_relation(&r, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(rows_of(x), rows_of(y));
        }
        // Row order in the source must not matter for assignment.
        let mut shuffled = r.clone();
        shuffled.sort_by_positions(&[1, 0]);
        let c = partition_relation(&shuffled, 4);
        for (x, y) in a.iter().zip(&c) {
            let mut xs = rows_of(x);
            let mut ys = rows_of(y);
            xs.sort();
            ys.sort();
            assert_eq!(xs, ys, "assignment depends only on values");
        }
    }

    #[test]
    fn duplicate_rows_colocate() {
        let mut b = RelationBuilder::new(Schema::new(["a"]));
        for _ in 0..6 {
            b.push_ints(&[42], 1.0);
        }
        for _ in 0..4 {
            b.push_ints(&[7], 2.0);
        }
        let parts = partition_relation(&b.finish(), 5);
        // All copies of a tuple land on exactly one fragment.
        for (tuple, copies) in [(Value::Int(42), 6usize), (Value::Int(7), 4)] {
            let holders: Vec<usize> = parts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.iter().any(|(_, row, _)| row == [tuple]))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(holders.len(), 1, "duplicates of {tuple:?} must co-locate");
            let holder = &parts[holders[0]];
            let count = holder.iter().filter(|(_, row, _)| *row == [tuple]).count();
            assert_eq!(count, copies);
        }
    }

    #[test]
    fn single_shard_is_the_whole_relation() {
        let r = sample(10);
        let parts = partition_relation(&r, 1);
        assert_eq!(parts.len(), 1);
        assert!(parts[0].shares_payload(&r), "one shard is a free clone");
    }

    #[test]
    fn empty_relation_partitions_to_empty_fragments() {
        let r = Relation::empty(Schema::new(["x"]));
        let parts = partition_relation(&r, 3);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(Relation::is_empty));
    }

    #[test]
    fn large_input_spreads_across_shards() {
        let r = sample(2000);
        let parts = partition_relation(&r, 8);
        for p in &parts {
            assert!(
                p.len() > 100,
                "hash should spread 2000 distinct rows roughly evenly, got {}",
                p.len()
            );
        }
    }
}
