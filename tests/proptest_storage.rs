//! Property-based tests of the storage substrate against simple models:
//! tries vs sorted scans and linear filters, dedup vs maps.

use anyk::storage::{Relation, RelationBuilder, Schema, Trie, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_rows(max_rows: usize, domain: i64) -> impl Strategy<Value = Vec<(i64, i64, f64)>> {
    prop::collection::vec((0..domain, 0..domain, 0i32..64), 0..=max_rows).prop_map(|rows| {
        rows.into_iter()
            .map(|(a, b, w)| (a, b, w as f64 / 4.0))
            .collect()
    })
}

fn build(rows: &[(i64, i64, f64)]) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
    for &(x, y, w) in rows {
        b.push_ints(&[x, y], w);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trie leaf enumeration visits exactly the relation's rows, in
    /// lexicographic order of the chosen attribute order.
    #[test]
    fn trie_enumerates_sorted_rows(rows in arb_rows(40, 8)) {
        prop_assume!(!rows.is_empty());
        let rel = build(&rows);
        let trie = Trie::build(&rel, &[0, 1]);
        // Walk the trie fully.
        let mut seen: Vec<(i64, i64)> = Vec::new();
        let root = trie.root();
        for i in root.start..root.end {
            let u = trie.value_at(root, i).int();
            let child = trie.descend(root, i);
            for j in child.start..child.end {
                let v = trie.value_at(child, j).int();
                for &rid in trie.leaf_rows(child, j) {
                    let row = rel.row(rid);
                    prop_assert_eq!(row[0].int(), u);
                    prop_assert_eq!(row[1].int(), v);
                    seen.push((u, v));
                }
            }
        }
        let mut expect: Vec<(i64, i64)> = rows.iter().map(|&(a, b, _)| (a, b)).collect();
        expect.sort();
        prop_assert_eq!(seen.len(), expect.len());
        prop_assert!(seen.windows(2).all(|w| w[0] <= w[1]));
        let mut seen_sorted = seen.clone();
        seen_sorted.sort();
        prop_assert_eq!(seen_sorted, expect);
    }

    /// Trie::seek equals the first linear-scan position with value >= v.
    #[test]
    fn trie_seek_matches_linear_scan(rows in arb_rows(40, 10), probe in 0i64..12) {
        prop_assume!(!rows.is_empty());
        let rel = build(&rows);
        let trie = Trie::build(&rel, &[0]);
        let root = trie.root();
        let vals: Vec<i64> = trie.child_values(root).iter().map(|v| v.int()).collect();
        let got = trie.seek(root, root.start, Value::Int(probe));
        let expect = vals.iter().position(|&x| x >= probe).unwrap_or(vals.len());
        prop_assert_eq!(got as usize, expect);
    }

    /// A trie point lookup (`find` + `rows_below`) equals a linear
    /// scan, row ids ascending — the contract every join-key grouping
    /// and the binary join's probe rely on.
    #[test]
    fn trie_point_lookup_matches_linear_scan(rows in arb_rows(40, 6), probe in 0i64..8) {
        prop_assume!(!rows.is_empty());
        let rel = build(&rows);
        for positions in [&[0usize][..], &[0, 1]] {
            let trie = Trie::build(&rel, positions);
            let root = trie.root();
            let got: &[u32] = match trie.find(root, Value::Int(probe)) {
                Some(i) => trie.rows_below(root, i),
                None => &[],
            };
            let expect: Vec<u32> = (rel.iter())
                .filter(|(_, row, _)| row[0].int() == probe)
                .map(|(id, _, _)| id)
                .collect();
            if positions.len() == 1 {
                prop_assert_eq!(got, &expect[..]);
            } else {
                // Below an inner level rows are ordered by the deeper
                // columns first; the set is the same.
                let mut sorted = got.to_vec();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, expect);
            }
        }
    }

    /// Dedup keeps exactly the distinct tuples with minimal weights.
    #[test]
    fn dedup_matches_btreemap_model(rows in arb_rows(40, 5)) {
        let mut rel = build(&rows);
        rel.dedup();
        let mut model: BTreeMap<(i64, i64), f64> = BTreeMap::new();
        for &(a, b, w) in &rows {
            model
                .entry((a, b))
                .and_modify(|m| *m = m.min(w))
                .or_insert(w);
        }
        prop_assert_eq!(rel.len(), model.len());
        for i in 0..rel.len() as u32 {
            let key = (rel.row(i)[0].int(), rel.row(i)[1].int());
            prop_assert_eq!(rel.weight(i).get(), model[&key]);
        }
    }

    /// retain behaves like a filtered rebuild.
    #[test]
    fn retain_matches_filter(rows in arb_rows(40, 6), keep_below in 0i64..8) {
        let mut rel = build(&rows);
        rel.retain(|rid| rel_row_first(&rows, rid) < keep_below);
        let expect: Vec<(i64, i64)> = rows
            .iter()
            .filter(|&&(a, _, _)| a < keep_below)
            .map(|&(a, b, _)| (a, b))
            .collect();
        prop_assert_eq!(rel.len(), expect.len());
        for (i, &(a, b)) in expect.iter().enumerate() {
            prop_assert_eq!(rel.row(i as u32)[0].int(), a);
            prop_assert_eq!(rel.row(i as u32)[1].int(), b);
        }
    }
}

/// `retain` passes original row ids in order, so the model can look at
/// the original rows.
fn rel_row_first(rows: &[(i64, i64, f64)], rid: u32) -> i64 {
    rows[rid as usize].0
}
