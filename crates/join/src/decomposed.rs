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
//! `anyk_core` can rank over the bag tree unchanged.
//!
//! Semantics note: bags are materialized as **sets** of variable
//! bindings; duplicate input tuples (same values) are collapsed to the
//! lightest. For inputs without duplicates (all graph workloads here)
//! this coincides with bag semantics.

use crate::generic_join::generic_join_with;
use anyk_query::cq::{Atom, ConjunctiveQuery, QueryBuilder};
use anyk_query::decompose::Decomposition;
use anyk_query::gyo::{gyo_reduce, GyoResult};
use anyk_query::hypergraph::iter_vars;
use anyk_query::join_tree::JoinTree;
use anyk_storage::fxhash::FxHasher;
use anyk_storage::{
    BuildEachTime, FxHashMap, IndexProvider, Relation, RelationBuilder, Schema, Trie, Value, Weight,
};
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;

/// A materialized decomposition plan: an acyclic query over bag
/// relations, equivalent to the original query.
#[derive(Debug)]
pub struct GhdPlan {
    /// One atom per bag, over the original variable names.
    pub bag_query: ConjunctiveQuery,
    /// A join tree for the bag query.
    pub bag_tree: JoinTree,
    /// Materialized bag relations (weights: the chosen merge — the
    /// ranking's `⊗` — over each bag's assigned atoms).
    pub bag_relations: Vec<Relation>,
}

/// Build and materialize a GHD plan for `q` using `decomp`, merging
/// the weights of a bag's assigned atoms with `+` (the Sum ranking's
/// `⊗`). For other scalar rankings use [`ghd_plan_with`].
///
/// Cost: O~(n^w) where `w` is the decomposition's width (each bag is
/// materialized by Generic-Join over its cover, whose output is bounded
/// by the bag's AGM bound).
pub fn ghd_plan(q: &ConjunctiveQuery, rels: &[Relation], decomp: &Decomposition) -> GhdPlan {
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
) -> GhdPlan {
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
) -> GhdPlan {
    assert_eq!(rels.len(), q.num_atoms());
    let nbags = decomp.bags.len();
    // Assigned atoms per bag (weight accounting + enforcement).
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); nbags];
    for (e, &home) in decomp.edge_home.iter().enumerate() {
        assigned[home].push(e);
    }

    // Weight lookup + enforcement per atom. An atom whose variables
    // are all distinct is answered straight from the shared trie over
    // its columns (ascending VarId order): an index *lookup* per bag
    // row, not a per-plan O(n) hash-map build — with a warm catalog
    // this whole step costs nothing up front. Atoms with repeated
    // variables keep the hash path: they also need the intra-atom
    // consistency filter, which a raw trie over all rows cannot
    // express.
    enum Weigher {
        /// Shared trie whose levels are the atom's columns in
        /// ascending-VarId order; leaves collapse duplicate tuples to
        /// the lightest weight at lookup time.
        Trie(Arc<Trie>),
        /// Binding -> lightest weight over consistent rows.
        Hash(FxHashMap<Vec<Value>, Weight>),
    }
    struct AtomWeigher {
        /// The atom's distinct variables, ascending VarId (the lookup
        /// key order for both variants).
        vars: Vec<usize>,
        how: Weigher,
    }
    let atom_weighers: Vec<AtomWeigher> = (0..q.num_atoms())
        .map(|e| {
            let atom = q.atom(e);
            let mut vars: Vec<usize> = atom.vars.clone();
            vars.sort_unstable();
            vars.dedup();
            let positions: Vec<usize> = vars.iter().map(|&v| atom.positions_of(v)[0]).collect();
            if vars.len() == atom.vars.len() {
                // Repeat-free: `positions` is a full column
                // permutation, so the catalog trie serves lookups.
                let how = Weigher::Trie(indexes.trie(&rels[e], &positions));
                return AtomWeigher { vars, how };
            }
            let mut map: FxHashMap<Vec<Value>, Weight> = FxHashMap::default();
            map.reserve(rels[e].len());
            for i in 0..rels[e].len() as u32 {
                // Enforce intra-atom repeated variables here.
                let row = rels[e].row(i);
                let consistent = atom
                    .vars
                    .iter()
                    .enumerate()
                    .all(|(pos, &v)| row[pos] == row[atom.positions_of(v)[0]]);
                if !consistent {
                    continue;
                }
                let key: Vec<Value> = positions.iter().map(|&p| row[p]).collect();
                // Duplicates collapse to the lightest weight.
                let w = rels[e].weight(i);
                map.entry(key)
                    .and_modify(|old| {
                        if w < *old {
                            *old = w;
                        }
                    })
                    .or_insert(w);
            }
            AtomWeigher {
                vars,
                how: Weigher::Hash(map),
            }
        })
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
                let idxs = atom_weighers[e]
                    .vars
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
                let weight = match &atom_weighers[*e].how {
                    Weigher::Trie(t) => {
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
                        // Duplicates collapse to the lightest weight.
                        let mut best = rels[*e].weight(leaf[0]);
                        for &r in &leaf[1..] {
                            let rw = rels[*e].weight(r);
                            if rw < best {
                                best = rw;
                            }
                        }
                        best
                    }
                    Weigher::Hash(map) => {
                        let key: Vec<Value> = idxs.iter().map(|&bi| row[bi]).collect();
                        match map.get(&key) {
                            Some(&weight) => weight,
                            None => continue 'rows, // enforcement: not in R_e
                        }
                    }
                };
                w = merge(w, weight);
            }
            builder.push(row, w);
        }
        bag_relations.push(builder.finish());
        bag_var_lists.push(bag_vars);
    }

    // Bag-level query: one atom per bag over the original variables.
    let mut qb = QueryBuilder::new();
    // Declare variables in original VarId order so bag-query VarIds ==
    // original VarIds (simplifies output handling).
    {
        // QueryBuilder declares on first use; force order with a seed
        // atom? Instead: build atoms with vars named by original names,
        // then verify the mapping.
        for (b, bag_vars) in bag_var_lists.iter().enumerate() {
            let names: Vec<&str> = bag_vars.iter().map(|&v| q.var_name(v)).collect();
            qb = qb.atom(format!("B{b}"), &names);
        }
    }
    let bag_query = qb.build();
    // Map original var id -> bag query var id (may differ if bag order
    // introduces vars in a different order).
    // Reorder bag relation columns? Not needed: atoms bind positionally
    // per bag relation and those match the atom's var list. ✓
    let bag_tree = match gyo_reduce(&bag_query) {
        GyoResult::Acyclic(t) => t,
        GyoResult::Cyclic(_) => {
            unreachable!("tree decompositions yield acyclic bag queries")
        }
    };
    GhdPlan {
        bag_query,
        bag_tree,
        bag_relations,
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
/// plus one weight-lookup trie per repeat-free atom (its columns in
/// ascending-VarId order). Repeated-variable atoms are omitted in both
/// parts, mirroring
/// [`crate::generic_join::generic_join_trie_requests`] and the hash
/// fallback of the weight lookup.
pub fn ghd_trie_requests(q: &ConjunctiveQuery, decomp: &Decomposition) -> Vec<(usize, Vec<usize>)> {
    let mut reqs = Vec::new();
    for bag in &decomp.bags {
        let (sub_q, _) = subquery(q, &bag.cover);
        for (j, positions) in crate::generic_join::generic_join_trie_requests(&sub_q, None) {
            reqs.push((bag.cover[j], positions));
        }
    }
    for e in 0..q.num_atoms() {
        let atom = q.atom(e);
        let mut vars: Vec<usize> = atom.vars.clone();
        vars.sort_unstable();
        vars.dedup();
        if vars.len() == atom.vars.len() {
            reqs.push((e, vars.iter().map(|&v| atom.positions_of(v)[0]).collect()));
        }
    }
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
    let plan = ghd_plan(q, rels, decomp);
    let res =
        crate::yannakakis::yannakakis_join(&plan.bag_query, &plan.bag_tree, plan.bag_relations);
    // The bag query declares variables in bag order, which generally
    // differs from the original VarId order — reorder columns back.
    let positions: Vec<usize> = (0..q.num_vars())
        .map(|v| {
            plan.bag_query
                .var(q.var_name(v))
                .expect("bags cover every variable")
        })
        .collect();
    res.project(&positions)
        .with_schema(Schema::new(q.var_names().iter().cloned()))
}

/// Boolean evaluation through a decomposition.
pub fn decomposed_boolean(q: &ConjunctiveQuery, rels: &[Relation], decomp: &Decomposition) -> bool {
    let plan = ghd_plan(q, rels, decomp);
    crate::boolean::boolean_acyclic(&plan.bag_query, &plan.bag_tree, plan.bag_relations)
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
