//! Decomposition-based execution for **general cyclic queries** — the
//! `O~(n^fhw + r)` algorithm family of §3: decompose the query into a
//! tree of bags, materialize each bag with a worst-case-optimal join,
//! then run Yannakakis (or ranked enumeration) over the acyclic
//! bag-level query.
//!
//! The bag-level query has one atom per bag, over the original
//! variables; GYO on it always succeeds (tree decompositions are
//! acyclic by construction). Weights are preserved exactly once: every
//! original atom has a *home bag* containing all its variables
//! (`Decomposition::edge_home`), and a bag tuple's weight is the
//! **ranking's `⊗`** over its assigned atoms' tuple weights
//! ([`ghd_plan_with`]; plain [`ghd_plan`] uses `+`) — so a bag-level
//! answer's weight equals the original answer's weight, and
//! `anyk_core` can rank over the bag tree unchanged. The plan is a
//! single [`TreeCase`]: its `out` puts the bag query's variables back
//! in the original query's `VarId` order.
//!
//! Semantics note: bags are materialized as **sets** of variable
//! bindings; duplicate input tuples (same values) are collapsed to the
//! lightest. For inputs without duplicates (all graph workloads here)
//! this coincides with bag semantics.

use crate::cases::{cases_exist, cases_join, CaseOut, TreeCase};
use crate::generic_join::{
    atom_levels, generic_join_trie_requests, generic_join_with, resolve_atom,
};
use anyk_query::cq::{Atom, ConjunctiveQuery, QueryBuilder, VarId};
use anyk_query::decompose::Decomposition;
use anyk_query::gyo::{gyo_reduce, GyoResult};
use anyk_query::hypergraph::iter_vars;
use anyk_storage::fxhash::FxHasher;
use anyk_storage::{
    BuildEachTime, FxHashMap, IndexProvider, Relation, RelationBuilder, Schema, Trie, Value, Weight,
};
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Build and materialize a GHD plan for `q` using `decomp`, merging
/// the weights of a bag's assigned atoms with `+` (the Sum ranking's
/// `⊗`). For other scalar rankings use [`ghd_plan_with`].
///
/// Cost: O~(n^w) where `w` is the decomposition's width (each bag is
/// materialized by Generic-Join over its cover, whose output is bounded
/// by the bag's AGM bound).
pub fn ghd_plan(q: &ConjunctiveQuery, rels: &[Relation], decomp: &Decomposition) -> TreeCase {
    ghd_plan_with(q, rels, decomp, Weight::ZERO, |a, b| {
        Weight::new(a.get() + b.get())
    })
}

/// [`ghd_plan`] with an explicit weight-level dioid: `identity` is the
/// weight of a bag tuple with no assigned atoms, `merge` folds the
/// assigned atoms' weights. Both must mirror the ranking the bag tree
/// will be enumerated under — merging with `+` and then ranking by
/// `max` downstream would rank wrong answers first.
pub fn ghd_plan_with(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    decomp: &Decomposition,
    identity: Weight,
    merge: impl Fn(Weight, Weight) -> Weight,
) -> TreeCase {
    ghd_plan_provider(q, rels, decomp, identity, merge, &BuildEachTime)
}

/// [`ghd_plan_with`] with trie construction delegated to a shared
/// [`IndexProvider`]: every bag's cover join runs through
/// [`generic_join_with`], so the worst-case-optimal materialization of
/// each bag resolves its tries from the catalog instead of rebuilding
/// them per plan. Cover atoms are refcount clones of the input
/// relations, so their payload identity (and hence index reuse) is
/// preserved across bags *and* across plans.
pub fn ghd_plan_provider(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    decomp: &Decomposition,
    identity: Weight,
    merge: impl Fn(Weight, Weight) -> Weight,
    indexes: &dyn IndexProvider,
) -> TreeCase {
    assert_eq!(rels.len(), q.num_atoms());
    let nbags = decomp.bags.len();
    // Assigned atoms per bag (weight accounting + enforcement).
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); nbags];
    for (e, &home) in decomp.edge_home.iter().enumerate() {
        assigned[home].push(e);
    }

    // Weight lookup + enforcement per atom: a trie over the atom's
    // distinct variables in ascending VarId order, resolved the way the
    // cover joins resolve theirs — the catalog's shared trie, so with a
    // warm catalog this step costs nothing up front, or, when the atom
    // repeats a variable and rows disagree on it, a private trie over
    // the rows that agree.
    let var_order: Vec<VarId> = (0..q.num_vars()).collect();
    let atom_vars = atom_levels(q, &var_order);
    let atom_weighers: Vec<Arc<Trie>> = (0..q.num_atoms())
        .map(|e| resolve_atom(q, rels, e, &atom_vars[e], indexes))
        .collect();

    // Materialize each bag.
    let mut bag_relations: Vec<Relation> = Vec::with_capacity(nbags);
    let mut bag_var_lists: Vec<Vec<usize>> = Vec::with_capacity(nbags);
    for (b, bag) in decomp.bags.iter().enumerate() {
        let bag_vars: Vec<usize> = iter_vars(bag.vars).collect();
        // Sub-query over the cover atoms.
        let cover = &bag.cover;
        assert!(!cover.is_empty(), "bag must have a cover");
        let (sub_q, var_map) = subquery(q, cover);
        let sub_rels: Vec<Relation> = cover.iter().map(|&e| rels[e].clone()).collect();
        // Enumerate the cover join, project each binding straight into
        // one row-major slab, and drop the row again if it repeats an
        // earlier one: distinct rows stay in first-occurrence order.
        // Bindings arrive in lexicographic order of the sub-query's
        // variables, so when the bag keeps a prefix of them (in any
        // column order) equal projections are adjacent and comparing
        // with the previous row is the whole dedup; otherwise rows are
        // looked up by a hash of their slab slice.
        let proj: Vec<usize> = bag_vars.iter().map(|&v| var_map[&v]).collect();
        let arity = proj.len();
        let keeps_prefix = proj.iter().all(|&p| p < arity);
        let mut rows: Vec<Value> = Vec::new();
        let mut seen = SeenRows::default();
        generic_join_with(&sub_q, &sub_rels, None, indexes, &mut |binding, _rows| {
            let at = rows.len();
            rows.extend(proj.iter().map(|&p| binding[p]));
            let repeat = if keeps_prefix {
                at > 0 && rows[at - arity..at] == rows[at..]
            } else {
                !seen.insert(&rows, arity)
            };
            if repeat {
                rows.truncate(at);
            }
            ControlFlow::Continue(())
        });
        // Enforce + weight each projected row via the assigned atoms.
        // Per assigned atom, the bag-row indices of its lookup key
        // (hoisted out of the row loop).
        let key_indices: Vec<(usize, Vec<usize>)> = assigned[b]
            .iter()
            .map(|&e| {
                let idxs = atom_vars[e]
                    .iter()
                    .map(|&v| {
                        bag_vars
                            .iter()
                            .position(|&bv| bv == v)
                            .expect("assigned atom's vars are inside its home bag")
                    })
                    .collect();
                (e, idxs)
            })
            .collect();
        let schema = Schema::new(bag_vars.iter().map(|&v| q.var_name(v).to_string()));
        let mut builder = RelationBuilder::with_capacity(schema, rows.len() / arity);
        'rows: for row in rows.chunks_exact(arity) {
            let mut w = identity;
            for (e, idxs) in &key_indices {
                let t = &atom_weighers[*e];
                let mut h = t.root();
                let mut leaf = None;
                for (d, &bi) in idxs.iter().enumerate() {
                    let Some(i) = t.find(h, row[bi]) else {
                        continue 'rows; // enforcement: not in R_e
                    };
                    if d + 1 == idxs.len() {
                        leaf = Some(t.rows_below(h, i));
                    } else {
                        h = t.descend(h, i);
                    }
                }
                let leaf = leaf.expect("atoms bind at least one variable");
                // Duplicates collapse to the lightest input row.
                let weight = (leaf.iter())
                    .map(|&r| rels[*e].weight(r))
                    .min()
                    .expect("a matched trie value has rows below it");
                w = merge(w, weight);
            }
            builder.push(row, w);
        }
        bag_relations.push(builder.finish());
        bag_var_lists.push(bag_vars);
    }

    // Bag-level query: one atom per bag over the original variable
    // names. Its variables are numbered in bag order, which generally
    // differs from the original `VarId` order: `out` maps them back.
    let mut qb = QueryBuilder::new();
    for (b, bag_vars) in bag_var_lists.iter().enumerate() {
        let names: Vec<&str> = bag_vars.iter().map(|&v| q.var_name(v)).collect();
        qb = qb.atom(format!("B{b}"), &names);
    }
    let query = qb.build();
    let tree = match gyo_reduce(&query) {
        GyoResult::Acyclic(t) => t,
        GyoResult::Cyclic(_) => {
            unreachable!("tree decompositions yield acyclic bag queries")
        }
    };
    let out = (q.var_names().iter())
        .map(|name| CaseOut::Var(query.var(name).expect("bags cover every variable")))
        .collect();
    TreeCase {
        label: "ghd".to_string(),
        query,
        tree,
        relations: bag_relations,
        out,
    }
}

/// The distinct fixed-width rows at the front of a growing slab, found
/// by a hash of the row's slice: no owned key per row. `head` maps a
/// hash to the latest row with it, `next` chains earlier rows sharing
/// that hash.
#[derive(Default)]
struct SeenRows {
    head: FxHashMap<u64, usize>,
    next: Vec<Option<usize>>,
}

impl SeenRows {
    /// `slab` holds the rows recorded so far plus one candidate, all
    /// `arity` wide. Records the candidate and returns `true` iff no
    /// recorded row equals it.
    fn insert(&mut self, slab: &[Value], arity: usize) -> bool {
        let row = self.next.len();
        let candidate = &slab[row * arity..];
        let mut hasher = FxHasher::default();
        candidate.hash(&mut hasher);
        let hash = hasher.finish();
        // The latest earlier row with this hash, if any, heads a chain
        // of all of them.
        let chain = self.head.get(&hash).copied();
        let mut earlier = chain;
        while let Some(i) = earlier {
            if slab[i * arity..][..arity] == *candidate {
                return false;
            }
            earlier = self.next[i];
        }
        self.head.insert(hash, row);
        self.next.push(chain);
        true
    }
}

/// The `(original atom index, trie positions)` requests
/// [`ghd_plan_provider`] makes against a shared [`IndexProvider`]: one
/// Generic-Join (default variable order) per bag over its cover atoms,
/// plus one weight-lookup trie per atom — the one a default-order
/// Generic-Join over the whole query would request. Repeated-variable
/// atoms are omitted in both parts, as in
/// [`generic_join_trie_requests`]: whether they reach the shared
/// catalog depends on the data.
pub fn ghd_trie_requests(q: &ConjunctiveQuery, decomp: &Decomposition) -> Vec<(usize, Vec<usize>)> {
    let mut reqs = Vec::new();
    for bag in &decomp.bags {
        let (sub_q, _) = subquery(q, &bag.cover);
        for (j, positions) in generic_join_trie_requests(&sub_q, None) {
            reqs.push((bag.cover[j], positions));
        }
    }
    reqs.extend(generic_join_trie_requests(q, None));
    reqs
}

/// Build the sub-query induced by `atoms` (indices into `q`), with
/// fresh variable ids. Returns the query and a map original VarId ->
/// sub-query VarId.
fn subquery(q: &ConjunctiveQuery, atoms: &[usize]) -> (ConjunctiveQuery, FxHashMap<usize, usize>) {
    let mut qb = QueryBuilder::new();
    for &e in atoms {
        let a: &Atom = q.atom(e);
        let names: Vec<&str> = a.vars.iter().map(|&v| q.var_name(v)).collect();
        qb = qb.atom(a.relation.clone(), &names);
    }
    let sub = qb.build();
    let mut map = FxHashMap::default();
    for v in 0..q.num_vars() {
        if let Some(sv) = sub.var(q.var_name(v)) {
            map.insert(v, sv);
        }
    }
    (sub, map)
}

/// Batch evaluation of a (possibly cyclic) query through a
/// decomposition: materialize bags, then Yannakakis over the bag tree.
/// Output schema = the *original* query's variables in `VarId` order;
/// weight = sum of all original atoms' weights.
pub fn decomposed_join(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    decomp: &Decomposition,
) -> Relation {
    cases_join(
        vec![ghd_plan(q, rels, decomp)],
        crate::yannakakis::output_schema(q),
    )
}

/// Boolean evaluation through a decomposition.
pub fn decomposed_boolean(q: &ConjunctiveQuery, rels: &[Relation], decomp: &Decomposition) -> bool {
    cases_exist(vec![ghd_plan(q, rels, decomp)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic_join::generic_join_materialize;
    use anyk_query::cq::{cycle_query, path_query, triangle_query};
    use anyk_query::decompose::{fhw_exact, fhw_greedy};
    use anyk_query::hypergraph::Hypergraph;
    use anyk_storage::RelationBuilder;

    fn edge_rel(rows: &[(i64, i64, f64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for &(x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    /// Compare decomposed execution against Generic-Join (inputs must be
    /// duplicate-free; weights compared with tolerance since combination
    /// orders differ).
    fn check(q: &ConjunctiveQuery, rels: &[Relation]) {
        let h = Hypergraph::of_query(q);
        for decomp in [fhw_exact(&h), fhw_greedy(&h)] {
            let got = decomposed_join(q, rels, &decomp);
            let (want, _) = generic_join_materialize(q, rels, None);
            assert_eq!(got.len(), want.len(), "cardinality under {:?}", decomp.kind);
            // Sort both and compare values + weights.
            let mut g: Vec<(Vec<i64>, f64)> = (0..got.len() as u32)
                .map(|i| {
                    (
                        got.row(i).iter().map(|v| v.int()).collect(),
                        got.weight(i).get(),
                    )
                })
                .collect();
            let mut w: Vec<(Vec<i64>, f64)> = (0..want.len() as u32)
                .map(|i| {
                    (
                        want.row(i).iter().map(|v| v.int()).collect(),
                        want.weight(i).get(),
                    )
                })
                .collect();
            g.sort_by(|a, b| a.0.cmp(&b.0));
            w.sort_by(|a, b| a.0.cmp(&b.0));
            for ((gv, gw), (wv, ww)) in g.iter().zip(&w) {
                assert_eq!(gv, wv);
                assert!((gw - ww).abs() < 1e-9, "weight {gw} vs {ww}");
            }
        }
    }

    #[test]
    fn triangle_through_decomposition() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (2, 1, 2.0),
            (1, 3, 0.125),
            (3, 2, 4.0),
        ]);
        let rels = vec![e.clone(), e.clone(), e];
        check(&triangle_query(), &rels);
    }

    #[test]
    fn four_cycle_through_decomposition() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 4, 0.25),
            (4, 1, 2.0),
            (2, 1, 0.75),
            (1, 4, 0.375),
        ]);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        check(&cycle_query(4), &rels);
    }

    #[test]
    fn five_cycle_through_decomposition() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 4, 0.25),
            (4, 5, 0.125),
            (5, 1, 2.0),
            (2, 1, 0.0625),
            (3, 2, 3.0),
        ]);
        let rels = vec![e.clone(), e.clone(), e.clone(), e.clone(), e];
        check(&cycle_query(5), &rels);
    }

    #[test]
    fn acyclic_query_degenerate_decomposition() {
        // Decomposing an acyclic query must also work (width 1).
        let rels = vec![
            edge_rel(&[(1, 2, 0.5), (3, 4, 1.0)]),
            edge_rel(&[(2, 5, 0.25), (4, 6, 2.0)]),
        ];
        check(&path_query(2), &rels);
    }

    #[test]
    fn boolean_through_decomposition() {
        let e = edge_rel(&[(1, 2, 0.0), (2, 3, 0.0), (3, 1, 0.0)]);
        let rels = vec![e.clone(), e.clone(), e.clone()];
        let h = Hypergraph::of_query(&triangle_query());
        let d = fhw_exact(&h);
        assert!(decomposed_boolean(&triangle_query(), &rels, &d));
        let e2 = edge_rel(&[(1, 2, 0.0), (2, 3, 0.0)]);
        let rels2 = vec![e2.clone(), e2.clone(), e2];
        assert!(!decomposed_boolean(&triangle_query(), &rels2, &d));
    }
}
