//! The Yannakakis algorithm for acyclic joins — O~(n + r), matching the
//! Ω(n + r) lower bound (§3 of the paper).
//!
//! Pipeline: full reducer (global consistency), then backtracking
//! enumeration down the join tree. After reduction *every* partial
//! binding extends to a full answer, so enumeration never dead-ends and
//! the join phase is output-linear. The enumeration reads the join-key
//! groups the reducer's sorted runs already hold
//! ([`Reduction::groups`]): a parent row names its group in each child
//! directly, so no key is extracted or looked up per binding.

use anyk_query::cq::ConjunctiveQuery;
use anyk_query::join_tree::JoinTree;
use anyk_storage::{Relation, RelationBuilder, RowId, Schema, Value, Weight};

use crate::semijoin::{row_bound, JoinGroups, Reduction};

/// Output schema of a full CQ: one column per variable, in `VarId`
/// order, named after the query's variable names.
pub fn output_schema(q: &ConjunctiveQuery) -> Schema {
    Schema::new(q.var_names().iter().cloned())
}

/// Run Yannakakis, invoking `f` once per answer with the (reduced)
/// relations and the row ids chosen at each join-tree node (indexed by
/// *node id*) — callers reconstruct values or weights as they wish.
/// Relations are consumed (the reducer filters them in place). Answers
/// come in pre-order odometer order: root rows in input order, and
/// under each binding a child's matching rows in input order.
///
/// Returns the (reduced) relations for further use.
pub fn yannakakis_for_each<F: FnMut(&[Relation], &[RowId])>(
    q: &ConjunctiveQuery,
    tree: &JoinTree,
    mut rels: Vec<Relation>,
    mut f: F,
) -> Vec<Relation> {
    let reduction = Reduction::run(q, tree, &mut rels);
    if rels.iter().any(|r| r.is_empty()) {
        return rels; // no answers
    }
    let (order, parent_slot) = tree.preorder_slots();
    let m = order.len();
    // Per non-root slot (pre-order position): its join-key groups.
    let groups: Vec<Option<JoinGroups>> = (order.iter())
        .map(|&node| tree.node(node).parent.map(|_| reduction.groups(node)))
        .collect();
    drop(reduction);
    let root_rows = row_bound(&rels[tree.node(order[0]).atom]);

    // Backtracking over preorder slots. A slot's candidates are a
    // cursor range: row ids themselves at the root, positions in the
    // slot's group rows below it.
    let mut chosen_rows: Vec<RowId> = vec![0; m]; // by slot
    let mut cursors: Vec<(u32, u32)> = vec![(0, 0); m]; // (next, end) per slot
    let mut by_node: Vec<RowId> = vec![0; tree.len()];

    let mut slot = 0usize;
    'outer: loop {
        // Candidate range for `slot` under the rows chosen above it.
        cursors[slot] = match &groups[slot] {
            None => (0, root_rows),
            Some(g) => {
                let group = g.of_parent_row[chosen_rows[parent_slot[slot]] as usize] as usize;
                (g.offsets[group], g.offsets[group + 1])
            }
        };
        debug_assert!(
            cursors[slot].0 < cursors[slot].1,
            "full reducer guarantees matches"
        );
        // Descend / emit loop.
        loop {
            let (next, end) = cursors[slot];
            if next < end {
                chosen_rows[slot] = match &groups[slot] {
                    None => next,
                    Some(g) => g.rows[next as usize],
                };
                if slot + 1 == m {
                    // Emit.
                    for s in 0..m {
                        by_node[order[s]] = chosen_rows[s];
                    }
                    f(&rels, &by_node);
                    cursors[slot].0 += 1;
                    continue;
                }
                slot += 1;
                continue 'outer;
            }
            // Exhausted: backtrack.
            if slot == 0 {
                break 'outer;
            }
            slot -= 1;
            cursors[slot].0 += 1;
        }
    }
    rels
}

/// Reconstruct an answer's output row (one value per variable, `VarId`
/// order) and summed weight from per-node row choices.
pub fn assemble_answer(
    q: &ConjunctiveQuery,
    tree: &JoinTree,
    rels: &[Relation],
    by_node: &[RowId],
    row: &mut [Value],
) -> Weight {
    let mut w = 0.0f64;
    for (node, &rid) in by_node.iter().enumerate() {
        let atom_idx = tree.node(node).atom;
        let atom = q.atom(atom_idx);
        let rel = &rels[atom_idx];
        let tuple = rel.row(rid);
        for (pos, &v) in atom.vars.iter().enumerate() {
            row[v] = tuple[pos];
        }
        w += rel.weight(rid).get();
    }
    Weight::new(w)
}

/// Materialize the full join: output schema = all variables (`VarId`
/// order); each answer's weight is the **sum** of its tuples' weights
/// (other ranking functions are handled by `anyk-core`'s batch
/// wrappers, which use the callback API).
pub fn yannakakis_join(q: &ConjunctiveQuery, tree: &JoinTree, rels: Vec<Relation>) -> Relation {
    let schema = output_schema(q);
    let mut out = RelationBuilder::new(schema);
    let mut row: Vec<Value> = vec![Value::Int(0); q.num_vars()];
    yannakakis_for_each(q, tree, rels, |rels, by_node| {
        let w = assemble_answer(q, tree, rels, by_node, &mut row);
        out.push(&row, w);
    });
    out.finish()
}

/// Count answers without materializing them, via bottom-up counting DP:
/// `count(t) = prod_children sum_{t' joining t} count(t')`, answer =
/// `sum over root tuples`. Linear time after reduction — used to verify
/// AGM-bound experiments without paying materialization.
pub fn yannakakis_count(q: &ConjunctiveQuery, tree: &JoinTree, mut rels: Vec<Relation>) -> u128 {
    let reduction = Reduction::run(q, tree, &mut rels);
    if rels.iter().any(|r| r.is_empty()) {
        return 0;
    }
    // counts[atom][row] = number of answers in the subtree of the
    // atom's node consistent with `row`. Reverse pre-order finishes a
    // node's subtree before the node multiplies into its parent.
    let mut counts: Vec<Vec<u128>> = rels.iter().map(|r| vec![1u128; r.len()]).collect();
    for &node in tree.preorder().iter().rev() {
        let Some(parent) = tree.node(node).parent else {
            continue;
        };
        let g = reduction.groups(node);
        let of_child = &counts[tree.node(node).atom];
        let group_sums: Vec<u128> = (g.offsets.windows(2))
            .map(|w| {
                let members = &g.rows[w[0] as usize..w[1] as usize];
                members.iter().map(|&r| of_child[r as usize]).sum()
            })
            .collect();
        let of_parent = &mut counts[tree.node(parent).atom];
        for (count, &group) in of_parent.iter_mut().zip(&g.of_parent_row) {
            *count = count.saturating_mul(group_sums[group as usize]);
        }
    }
    let root_atom = tree.node(tree.root()).atom;
    counts[root_atom].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::{path_query, star_query};
    use anyk_query::gyo::{gyo_reduce, GyoResult};
    use anyk_storage::RelationBuilder;

    fn edge_rel(cols: [&str; 2], edges: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(cols));
        for &(x, y) in edges {
            b.push_ints(&[x, y], 1.0);
        }
        b.finish()
    }

    fn tree_of(q: &ConjunctiveQuery) -> JoinTree {
        match gyo_reduce(q) {
            GyoResult::Acyclic(t) => t,
            _ => panic!("cyclic"),
        }
    }

    #[test]
    fn path_enumeration() {
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2), (1, 3), (4, 2)]),
            edge_rel(["b", "c"], &[(2, 5), (3, 6), (3, 7)]),
        ];
        let mut n = 0;
        yannakakis_for_each(&q, &tree, rels, |_, _| n += 1);
        // (1,2,5), (1,3,6), (1,3,7), (4,2,5)
        assert_eq!(n, 4);
    }

    #[test]
    fn count_matches_enumeration() {
        let q = path_query(3);
        let tree = tree_of(&q);
        let mk = || {
            vec![
                edge_rel(["a", "b"], &[(1, 2), (2, 2), (3, 4)]),
                edge_rel(["b", "c"], &[(2, 2), (2, 3), (4, 1)]),
                edge_rel(["c", "d"], &[(2, 9), (3, 9), (1, 8)]),
            ]
        };
        let mut n: u128 = 0;
        yannakakis_for_each(&q, &tree, mk(), |_, _| n += 1);
        assert_eq!(yannakakis_count(&q, &tree, mk()), n);
        assert!(n > 0);
    }

    #[test]
    fn star_count() {
        let q = star_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["o", "p"], &[(1, 10), (1, 11), (2, 12)]),
            edge_rel(["o", "q"], &[(1, 20), (2, 21), (2, 22)]),
        ];
        // center 1: 2*1 = 2; center 2: 1*2 = 2.
        assert_eq!(yannakakis_count(&q, &tree, rels), 4);
    }

    #[test]
    fn empty_result() {
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2)]),
            edge_rel(["b", "c"], &[(9, 5)]),
        ];
        let mut n = 0;
        yannakakis_for_each(&q, &tree, rels, |_, _| n += 1);
        assert_eq!(n, 0);
    }
}
