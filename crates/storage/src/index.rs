//! The join-key hash index.
//!
//! [`HashIndex`] — equi-join lookups: key values → group of row ids. It
//! is built *at query time* and owned by whoever built it (a T-DP
//! instance, a semijoin pass); the construction cost is part of every
//! algorithm's measured cost, matching the paper's RAM-model
//! accounting. Catalog-resident, shared indexes are tries
//! ([`crate::IndexCatalog`]) and only tries.

use crate::fxhash::FxHashMap;
use crate::relation::{Relation, RowId};
use crate::value::Value;

/// A hash index from join-key values to the row ids sharing that key.
///
/// Group storage is flattened: `groups` maps each key to a `(start, len)`
/// range in `rows`, so a lookup returns a contiguous `&[RowId]` without
/// per-group heap allocations.
#[derive(Debug)]
pub struct HashIndex {
    key_positions: Vec<usize>,
    groups: FxHashMap<Box<[Value]>, (u32, u32)>,
    rows: Vec<RowId>,
}

impl HashIndex {
    /// Build over `rel` keyed by the attributes at `key_positions`.
    pub fn build(rel: &Relation, key_positions: &[usize]) -> Self {
        // Two passes: count group sizes, then fill — keeps `rows` compact.
        let mut counts: FxHashMap<Box<[Value]>, u32> = FxHashMap::default();
        counts.reserve(rel.len());
        let mut key = Vec::with_capacity(key_positions.len());
        for i in 0..rel.len() as RowId {
            rel.key_into(i, key_positions, &mut key);
            if let Some(c) = counts.get_mut(key.as_slice()) {
                *c += 1;
            } else {
                counts.insert(key.clone().into_boxed_slice(), 1);
            }
        }
        let mut groups: FxHashMap<Box<[Value]>, (u32, u32)> = FxHashMap::default();
        groups.reserve(counts.len());
        let mut start = 0u32;
        for (k, c) in counts {
            groups.insert(k, (start, c));
            start += c;
        }
        let mut rows = vec![0 as RowId; start as usize];
        // Per-group fill offsets, keyed by owned key.
        let mut offsets: FxHashMap<Box<[Value]>, u32> = FxHashMap::default();
        offsets.reserve(groups.len());
        for i in 0..rel.len() as RowId {
            rel.key_into(i, key_positions, &mut key);
            let (start, _) = groups[key.as_slice()];
            let off = offsets.entry(key.clone().into_boxed_slice()).or_insert(0);
            rows[(start + *off) as usize] = i;
            *off += 1;
        }
        HashIndex {
            key_positions: key_positions.to_vec(),
            groups,
            rows,
        }
    }

    /// The key positions this index is built on.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_positions
    }

    /// Row ids whose key equals `key` (empty slice if absent).
    #[inline]
    pub fn get(&self, key: &[Value]) -> &[RowId] {
        match self.groups.get(key) {
            Some(&(start, len)) => &self.rows[start as usize..(start + len) as usize],
            None => &[],
        }
    }

    /// Does any row have this key?
    #[inline]
    pub fn contains(&self, key: &[Value]) -> bool {
        self.groups.contains_key(key)
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.groups.len()
    }

    /// Iterate `(key, group)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &[RowId])> + '_ {
        self.groups.iter().map(move |(k, &(start, len))| {
            (
                k.as_ref(),
                &self.rows[start as usize..(start + len) as usize],
            )
        })
    }

    /// The size of the largest group (skew diagnostic / heavy-hitter cutoff).
    pub fn max_group_len(&self) -> usize {
        self.groups
            .values()
            .map(|&(_, l)| l as usize)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::schema::Schema;

    fn rel() -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["a", "b"]));
        b.push_ints(&[1, 10], 0.0);
        b.push_ints(&[2, 20], 0.0);
        b.push_ints(&[1, 30], 0.0);
        b.push_ints(&[3, 10], 0.0);
        b.finish()
    }

    #[test]
    fn hash_index_groups() {
        let r = rel();
        let idx = HashIndex::build(&r, &[0]);
        let g1: Vec<RowId> = {
            let mut v = idx.get(&[Value::Int(1)]).to_vec();
            v.sort();
            v
        };
        assert_eq!(g1, vec![0, 2]);
        assert_eq!(idx.get(&[Value::Int(9)]), &[] as &[RowId]);
        assert_eq!(idx.num_keys(), 3);
        assert!(idx.contains(&[Value::Int(3)]));
        assert_eq!(idx.max_group_len(), 2);
    }

    #[test]
    fn hash_index_composite_key() {
        let r = rel();
        let idx = HashIndex::build(&r, &[0, 1]);
        assert_eq!(idx.get(&[Value::Int(1), Value::Int(30)]), &[2]);
        assert_eq!(idx.num_keys(), 4);
    }

    #[test]
    fn hash_index_iter_covers_all_rows() {
        let r = rel();
        let idx = HashIndex::build(&r, &[1]);
        let total: usize = idx.iter().map(|(_, g)| g.len()).sum();
        assert_eq!(total, r.len());
    }

    #[test]
    fn empty_relation_index() {
        let r = Relation::empty(Schema::new(["a"]));
        let h = HashIndex::build(&r, &[0]);
        assert_eq!(h.num_keys(), 0);
    }
}
