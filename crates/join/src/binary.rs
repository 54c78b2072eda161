//! Left-deep binary join plans — the "two-relations-at-a-time"
//! approach favored by classical optimizers (§3 of the paper), which is
//! provably suboptimal on cyclic queries: on the worst-case triangle
//! instance *every* join order materializes Θ(n²) intermediate tuples
//! while the output is only O(n^1.5).
//!
//! Instrumented: reports the peak and total intermediate result sizes so
//! `tests/paper_claims.rs` can show *why* binary plans lose (E01/E02).

use anyk_query::cq::{ConjunctiveQuery, VarId};
use anyk_storage::{Relation, RelationBuilder, RowId, Schema, Trie, Value, Weight};

use crate::semijoin::{row_bound, RepeatedVars};

/// Statistics from executing a binary plan.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryJoinStats {
    /// Rows of the largest intermediate relation (including the final
    /// result).
    pub max_intermediate: usize,
    /// Sum of all intermediate relation sizes (the RAM-model cost the
    /// tutorial's Part 1 critique is about).
    pub total_intermediate: usize,
}

/// Execute the join of all atoms in the given left-deep `order`
/// (indices into the atom list; must be a permutation). Returns the
/// materialized result (schema = all variables in `VarId` order, weight
/// = sum) and instrumentation.
///
/// Atoms joined with no shared variables degenerate to cartesian
/// products, as a real executor would.
pub fn binary_join(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    order: &[usize],
) -> (Relation, BinaryJoinStats) {
    assert_eq!(rels.len(), q.num_atoms());
    assert_eq!(order.len(), q.num_atoms());
    let mut stats = BinaryJoinStats {
        max_intermediate: 0,
        total_intermediate: 0,
    };

    // Intermediate: columns = bound variables in binding order.
    let first = order[0];
    let mut bound: Vec<VarId> = Vec::new();
    let mut acc = atom_to_intermediate(q, &rels[first], first, &mut bound);
    stats.max_intermediate = acc.len();
    stats.total_intermediate = acc.len();

    for &ai in &order[1..] {
        let atom = q.atom(ai);
        let rel = &rels[ai];
        // Shared variables between accumulated binding and this atom.
        let shared: Vec<VarId> = atom
            .vars
            .iter()
            .copied()
            .filter(|v| bound.contains(v))
            .collect();
        let acc_key: Vec<usize> = shared
            .iter()
            .map(|v| bound.iter().position(|b| b == v).unwrap())
            .collect();
        let rel_key: Vec<usize> = shared.iter().map(|v| atom.positions_of(*v)[0]).collect();
        // New columns contributed by this atom (first occurrence per new
        // variable).
        let mut new_vars: Vec<(VarId, usize)> = Vec::new();
        for (pos, &v) in atom.vars.iter().enumerate() {
            if !bound.contains(&v) && !new_vars.iter().any(|&(u, _)| u == v) {
                new_vars.push((v, pos));
            }
        }
        let mut next_bound = bound.clone();
        next_bound.extend(new_vars.iter().map(|&(v, _)| v));
        let next_schema = Schema::new(next_bound.iter().map(|&v| q.var_name(v).to_string()));
        let mut out = RelationBuilder::new(next_schema);

        // Index the atom relation on the shared variables and probe it
        // with every accumulated row (the adversarial instances are
        // symmetric, so which side is indexed does not matter). With no
        // shared variable every row matches: a cartesian product.
        let idx = (!rel_key.is_empty()).then(|| Trie::build(rel, &rel_key));
        let all_rows: Vec<RowId> = match idx {
            Some(_) => Vec::new(),
            None => (0..row_bound(rel)).collect(),
        };
        let repeats = RepeatedVars::of(atom);
        let mut row_buf: Vec<Value> = Vec::with_capacity(next_bound.len());
        for i in 0..row_bound(&acc) {
            let acc_row = acc.row(i);
            let matches = match &idx {
                Some(trie) => rows_with_key(trie, acc_key.iter().map(|&p| acc_row[p])),
                None => &all_rows,
            };
            for &r in matches {
                let tuple = rel.row(r);
                if !repeats.agree(tuple) {
                    continue;
                }
                row_buf.clear();
                row_buf.extend_from_slice(acc_row);
                row_buf.extend(new_vars.iter().map(|&(_, pos)| tuple[pos]));
                let w = acc.weight(i).get() + rel.weight(r).get();
                out.push(&row_buf, Weight::new(w));
            }
        }
        acc = out.finish();
        bound = next_bound;
        stats.max_intermediate = stats.max_intermediate.max(acc.len());
        stats.total_intermediate += acc.len();
    }

    // Reorder columns into VarId order for a canonical output schema.
    let positions: Vec<usize> = (0..q.num_vars())
        .map(|v| {
            bound
                .iter()
                .position(|&b| b == v)
                .expect("all variables bound after full plan")
        })
        .collect();
    let result = acc
        .project(&positions)
        .with_schema(Schema::new(q.var_names().iter().cloned()));
    (result, stats)
}

/// The rows of `trie`'s relation whose key columns (one per level) hold
/// `key`, ascending by row id: one [`Trie::find`] per level.
fn rows_with_key(trie: &Trie, key: impl Iterator<Item = Value>) -> &[RowId] {
    let mut node = trie.root();
    let mut rows: &[RowId] = &[];
    for v in key {
        let Some(child) = trie.find(node, v) else {
            return &[];
        };
        if node.level as usize + 1 == trie.depth() {
            rows = trie.leaf_rows(node, child);
        } else {
            node = trie.descend(node, child);
        }
    }
    rows
}

/// Promote a base relation to intermediate form: one column per
/// *distinct* variable (dropping repeated-variable duplicates after
/// filtering for consistency).
fn atom_to_intermediate(
    q: &ConjunctiveQuery,
    rel: &Relation,
    atom_idx: usize,
    bound: &mut Vec<VarId>,
) -> Relation {
    let atom = q.atom(atom_idx);
    let mut first_pos: Vec<(VarId, usize)> = Vec::new();
    for (pos, &v) in atom.vars.iter().enumerate() {
        if !first_pos.iter().any(|&(u, _)| u == v) {
            first_pos.push((v, pos));
        }
    }
    bound.clear();
    bound.extend(first_pos.iter().map(|&(v, _)| v));
    let schema = Schema::new(bound.iter().map(|&v| q.var_name(v).to_string()));
    let mut b = RelationBuilder::with_capacity(schema, rel.len());
    let mut row_buf = Vec::with_capacity(first_pos.len());
    let repeats = RepeatedVars::of(atom);
    for (_, tuple, weight) in rel.iter() {
        if !repeats.agree(tuple) {
            continue;
        }
        row_buf.clear();
        row_buf.extend(first_pos.iter().map(|&(_, pos)| tuple[pos]));
        b.push(&row_buf, weight);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::{path_query, triangle_query, QueryBuilder};
    use anyk_storage::RelationBuilder;

    fn edge_rel(cols: [&str; 2], edges: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(cols));
        for &(x, y) in edges {
            b.push_ints(&[x, y], 1.0);
        }
        b.finish()
    }

    #[test]
    fn two_way_join() {
        let q = path_query(2);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2), (4, 2), (5, 9)]),
            edge_rel(["b", "c"], &[(2, 7), (2, 8)]),
        ];
        let (res, stats) = binary_join(&q, &rels, &[0, 1]);
        assert_eq!(res.len(), 4);
        assert_eq!(stats.max_intermediate, 4);
        // Columns in VarId order: x0, x1, x2.
        assert_eq!(res.schema().attrs(), &["x0", "x1", "x2"]);
    }

    #[test]
    fn triangle_all_orders_agree() {
        let q = triangle_query();
        let edges = [(1, 2), (2, 3), (3, 1), (2, 1), (1, 1)];
        let rels: Vec<Relation> = (0..3)
            .map(|i| {
                edge_rel([["p", "q"][0], ["p", "q"][1]], &edges)
                    .with_schema(Schema::new([format!("u{i}"), format!("v{i}")]))
            })
            .collect();
        let mut counts = Vec::new();
        for order in [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]] {
            let (res, _) = binary_join(&q, &rels, &order);
            counts.push(res.len());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert!(counts[0] > 0);
    }

    #[test]
    fn weights_sum() {
        let q = path_query(2);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2)]),
            edge_rel(["b", "c"], &[(2, 3)]),
        ];
        let (res, _) = binary_join(&q, &rels, &[0, 1]);
        assert_eq!(res.weight(0), Weight::new(2.0));
    }

    #[test]
    fn cartesian_when_disconnected() {
        let q = QueryBuilder::new()
            .atom("R", &["a", "b"])
            .atom("S", &["c", "d"])
            .build();
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2), (3, 4)]),
            edge_rel(["c", "d"], &[(5, 6), (7, 8), (9, 10)]),
        ];
        let (res, _) = binary_join(&q, &rels, &[0, 1]);
        assert_eq!(res.len(), 6);
    }

    #[test]
    fn repeated_var_in_atom() {
        let q = QueryBuilder::new()
            .atom("E", &["x", "x"])
            .atom("F", &["x", "y"])
            .build();
        let rels = vec![
            edge_rel(["u", "v"], &[(1, 1), (1, 2), (2, 2)]),
            edge_rel(["u", "v"], &[(1, 5), (2, 6), (3, 7)]),
        ];
        let (res, _) = binary_join(&q, &rels, &[0, 1]);
        // x in {1,2}; joins with (1,5) and (2,6).
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn quadratic_intermediate_on_worst_case_triangle() {
        // The §3 instance: R=S=T={(i,1)} ∪ {(1,j)}: binary plans blow up.
        let n = 40i64;
        let mut edges = Vec::new();
        for i in 1..=n / 2 {
            edges.push((i, 1));
            edges.push((1, i));
        }
        let q = triangle_query();
        let rels: Vec<Relation> = (0..3)
            .map(|i| {
                edge_rel(["p", "q"], &edges)
                    .with_schema(Schema::new([format!("u{i}"), format!("v{i}")]))
            })
            .collect();
        let (_, stats) = binary_join(&q, &rels, &[0, 1, 2]);
        // First join R(x1,x2) ⋈ S(x2,x3): pairs (i,1,j) ~ (n/2)^2.
        assert!(
            stats.max_intermediate >= (n as usize / 2).pow(2),
            "expected quadratic blowup, got {}",
            stats.max_intermediate
        );
    }
}
