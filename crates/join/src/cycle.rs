//! The submodular-width plan for the simple ℓ-cycle — §3's headline
//! example generalised: fractional hypertree width 2, but submodular
//! width `2 − 1/⌈ℓ/2⌉`, achieved by a **union of multiple trees**, each
//! receiving a subset of the input.
//!
//! Query: `R1(x1,x2) ⋈ R2(x2,x3) ⋈ … ⋈ Rℓ(xℓ,x1)`, bag semantics.
//! With `h = ⌈ℓ/2⌉` the cycle is cut at `xh` and `xℓ` into the chains
//! `[Rℓ, R1 … R(h−1)]` and `[Rh … R(ℓ−1)]`. The ℓ − 2 attributes
//! *inside* a chain — `x1 … x(h−1)`, then `x(h+1) … x(ℓ−1)` — are the
//! **split attributes**; a value of `xs` is heavy when more than Δ rows
//! of `Rs` carry it (Δ = `threshold`, `⌈n^(1/h)⌉` from
//! [`anyk_query::cycles::cycle_heavy_threshold`]), so each split
//! attribute has at most `n/Δ` heavy values. Every answer falls into
//! exactly one case, by its *first* heavy split attribute:
//!
//! * **family i** — the first i − 1 split attributes light, the i-th,
//!   `xs`, heavy `= v`: fixing `xs` opens the cycle into the path
//!   `As_v(x(s+1)) ⋈ R(s+1) ⋈ … ⋈ R(s−2) ⋈ A(s−1)_v(x(s−1))`, where the
//!   two unary ends are the rows of `Rs` and `R(s−1)` that carry `v`
//!   and every relation of an earlier split attribute keeps only its
//!   light rows. One acyclic instance of input size O(n) per heavy
//!   value: O(n²/Δ) for the family.
//! * **light-light** — no split attribute heavy: each chain is joined
//!   into one bag, `W1(x1 … xh, xℓ)` and `W2(xh … xℓ)`. Along a chain
//!   every step into a light-filtered relation multiplies by at most
//!   Δ, so a bag has at most `n·Δ^(h−1)` rows; the two bags join on
//!   their shared end attributes `xh` and `xℓ` as a two-node tree.
//!
//! The cases are disjoint (an answer's first heavy split attribute and
//! its value name one case; the light filters keep it out of the later
//! ones) and complete (an answer with no heavy split attribute is in
//! both light bags), and every input row of an answer is read exactly
//! once per case, so multiplicities are the bag-semantics ones.
//! `n²/Δ = n·Δ^(h−1) = n^(2−1/h)` at `Δ = n^(1/h)`.
//!
//! At ℓ = 4 the split attributes are `x1` and `x3` and the cases are
//! the textbook A (`heavy-x1`), B (`light-x1,heavy-x3`) and C
//! (`W1 = R1ˡ ⋈ R4`, `W2 = R2 ⋈ R3ˡ`) of the 4-cycle at `Δ = ⌈√n⌉`.
//! ℓ = 3 is accepted too (one split attribute, `W2 = R2`); the engine
//! routes the triangle elsewhere.
//!
//! Batch, Boolean, and ranked execution all consume this case list
//! ([`crate::cases`]; ranked enumeration merges one T-DP stream per
//! case in `anyk_core::cyclic`).

use crate::cases::{cases_join, CaseOut, TreeCase};
use anyk_query::cq::{ConjunctiveQuery, QueryBuilder};
use anyk_query::gyo::{gyo_reduce, GyoResult};
use anyk_query::join_tree::JoinTree;
use anyk_storage::{
    BuildEachTime, FxHashMap, IndexProvider, Relation, RelationBuilder, RowId, Schema, Trie, Value,
    Weight,
};
use std::sync::Arc;

/// The split attributes of the ℓ-cycle in case order, as 0-based atom
/// indexes `s` (the attribute is `Rs`'s first column): the interiors of
/// the two chains, `x1 … x(h−1)` then `x(h+1) … x(ℓ−1)`.
fn split_attributes(l: usize) -> impl Iterator<Item = usize> {
    let h = l.div_ceil(2);
    (0..h - 1).chain(h..l - 1)
}

/// Heavy values of `t`'s first level, ascending: more than `threshold`
/// rows below. The first trie level enumerates the column's distinct
/// values in order, so the subtree row count *is* the per-value degree
/// and the case list never sees a hash order.
fn heavy_from_trie(t: &Trie, threshold: usize) -> Vec<Value> {
    let root = t.root();
    (root.start..root.end)
        .filter(|&i| t.rows_below(root, i).len() > threshold)
        .map(|i| t.value_at(root, i))
        .collect()
}

/// Rows of `rel` whose first column is not in `heavy` (sorted), as a
/// new relation.
fn light_rows(rel: &Relation, heavy: &[Value]) -> Relation {
    let mut b = RelationBuilder::new(rel.schema().clone());
    for (_, row, weight) in rel.iter() {
        if heavy.binary_search(&row[0]).is_err() {
            b.push(row, weight);
        }
    }
    b.finish()
}

/// Unary projection `{ rel[keep_col] : rel[match_col] = v }` without
/// the kept values in `except` (sorted), carrying the original tuples'
/// weights, answered from the shared trie whose first level is
/// `match_col`. Matching row ids are re-sorted into input order so the
/// residual is byte-identical to a direct scan.
fn residual_unary(
    rel: &Relation,
    t: &Trie,
    v: Value,
    keep_col: usize,
    name: &str,
    except: &[Value],
) -> Relation {
    let mut b = RelationBuilder::new(Schema::new([name]));
    let root = t.root();
    if let Some(i) = t.find(root, v) {
        let mut ids: Vec<RowId> = t.rows_below(root, i).to_vec();
        ids.sort_unstable();
        for r in ids {
            let kept = rel.row(r)[keep_col];
            if except.binary_search(&kept).is_err() {
                b.push(&[kept], rel.weight(r));
            }
        }
    }
    b.finish()
}

/// Point probes into a trie's first level by rows that arrive in no
/// particular order and repeat their values (the light bag joins). The
/// rows below each value that is found are re-sorted into input order
/// once and kept behind a hash of the value, so a repeated probe is one
/// lookup instead of a binary search of the level plus a copy and a
/// sort of the matching ids. Values the trie does not hold are not
/// remembered: a probe side that never matches costs a search per row
/// and no memory.
struct RowsByValue<'t> {
    trie: &'t Trie,
    spans: FxHashMap<Value, (usize, usize)>,
    ids: Vec<RowId>,
}

impl<'t> RowsByValue<'t> {
    fn of(trie: &'t Trie) -> Self {
        RowsByValue {
            trie,
            spans: FxHashMap::default(),
            ids: Vec::new(),
        }
    }

    /// The rows whose first-level value is `v`, ascending by row id.
    fn rows(&mut self, v: Value) -> &[RowId] {
        if let Some(&(from, to)) = self.spans.get(&v) {
            return &self.ids[from..to];
        }
        let root = self.trie.root();
        let Some(child) = self.trie.find(root, v) else {
            return &[];
        };
        let from = self.ids.len();
        self.ids
            .extend_from_slice(self.trie.rows_below(root, child));
        self.ids[from..].sort_unstable();
        self.spans.insert(v, (from, self.ids.len()));
        &self.ids[from..]
    }
}

/// One step of a light bag join: every row of `bag` extended by the
/// `keep_col` value of each `rel` row that `by` (a trie over `rel`
/// keyed by the match column) finds under `bag[probe_col]`, bag rows in
/// order and matches in input order, weights combined with `merge`.
fn extend_bag(
    bag: &Relation,
    probe_col: usize,
    (rel, by, keep_col): (&Relation, &Trie, usize),
    vars: Vec<String>,
    merge: &impl Fn(Weight, Weight) -> Weight,
) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(vars));
    let mut by = RowsByValue::of(by);
    let arity = bag.arity();
    let mut wide = vec![Value::Int(0); arity + 1];
    for (_, row, weight) in bag.iter() {
        wide[..arity].copy_from_slice(row);
        for &j in by.rows(row[probe_col]) {
            wide[arity] = rel.row(j)[keep_col];
            b.push(&wide, merge(weight, rel.weight(j)));
        }
    }
    b.finish()
}

fn query_of(atoms: &[(String, Vec<String>)]) -> (ConjunctiveQuery, JoinTree) {
    let q = (atoms.iter())
        .fold(QueryBuilder::new(), |b, (name, vars)| {
            let vars: Vec<&str> = vars.iter().map(String::as_str).collect();
            b.atom(name.as_str(), &vars)
        })
        .build();
    match gyo_reduce(&q) {
        GyoResult::Acyclic(tree) => (q, tree),
        GyoResult::Cyclic(_) => panic!("case query must be acyclic"),
    }
}

/// Build the full union-of-trees case list for the ℓ-cycle instance
/// `rels = [R1, …, Rℓ]` (each binary, oriented as in
/// [`anyk_query::cq::cycle_query`]). `threshold` is the heavy-degree
/// cutoff Δ (use [`anyk_query::cycles::cycle_heavy_threshold`] of the
/// max relation size).
///
/// Weights are merged with `+` — the paper's default Sum ranking. For
/// any other scalar ranking use [`cycle_cases_with`] and pass its
/// weight-level combine: the light-light case pre-joins each chain
/// into a bag relation, so several edge weights collapse into one
/// bag-tuple weight *under the ranking's own `⊗`* — summing here and
/// then `max`-ing downstream would rank wrong answers first.
pub fn cycle_cases(rels: &[Relation], threshold: usize) -> Vec<TreeCase> {
    cycle_cases_with(rels, threshold, |a, b| Weight::new(a.get() + b.get()))
}

/// [`cycle_cases`] with an explicit weight merge for the pre-joined
/// light bags. `merge` must be the weight-level `⊗` of the ranking the
/// cases will be enumerated under (commutative and associative, since
/// the bags cover the atoms in an order of their own).
pub fn cycle_cases_with(
    rels: &[Relation],
    threshold: usize,
    merge: impl Fn(Weight, Weight) -> Weight,
) -> Vec<TreeCase> {
    cycle_cases_provider(rels, threshold, merge, &BuildEachTime)
}

/// The shared-trie requests [`cycle_cases_provider`] makes
/// unconditionally on an ℓ-cycle, as `(atom index, trie positions)`
/// pairs: the relation of every split attribute by its first column,
/// `Rℓ` reversed. The reversed trie of a heavy value's predecessor
/// relation is requested only when heavy values exist, so it is
/// omitted — a probe over this listing answers "is prepare a pure
/// index lookup for the tries every instance needs?" without
/// inspecting the data.
pub fn cycle_trie_requests(l: usize) -> Vec<(usize, Vec<usize>)> {
    (split_attributes(l).map(|s| (s, vec![0, 1])))
        .chain([(l - 1, vec![1, 0])])
        .collect()
}

/// [`cycle_cases_with`] with trie construction delegated to a shared
/// [`IndexProvider`]. Every trie the case construction needs — degree
/// counting, heavy-value residuals, and the light bag joins — is
/// resolved through `indexes`, so a warm catalog turns the O~(n)
/// index-build portion of preprocessing into lookups. Derived
/// (light-filtered) relations never touch the shared catalog: when
/// heavy values exist the filtered payload is fresh and gets a private
/// build; when none exist the unfiltered payload (and its shared trie)
/// is reused as-is.
pub fn cycle_cases_provider(
    rels: &[Relation],
    threshold: usize,
    merge: impl Fn(Weight, Weight) -> Weight,
    indexes: &dyn IndexProvider,
) -> Vec<TreeCase> {
    let l = rels.len();
    assert!(l >= 3, "a cycle needs at least 3 relations");
    for r in rels {
        assert_eq!(r.arity(), 2, "cycle relations are binary");
    }
    let h = l.div_ceil(2);
    let x = |i: usize| format!("x{}", i % l + 1);
    let split: Vec<usize> = split_attributes(l).collect();

    // Shared tries: every split attribute's relation ordered by that
    // attribute (degrees + residuals + the bag joins), Rℓ ordered by
    // x1 (residuals + the W1 bag). The other reversed tries are only
    // needed for heavy residuals and are requested lazily below.
    let by_first: Vec<Arc<Trie>> = (split.iter())
        .map(|&s| indexes.trie(&rels[s], &[0, 1]))
        .collect();
    let last_by_second = indexes.trie(&rels[l - 1], &[1, 0]);
    let heavy: Vec<Vec<Value>> = (by_first.iter())
        .map(|t| heavy_from_trie(t, threshold))
        .collect();

    // `light[i]` is Ri without the heavy values of the split attributes
    // handled so far; `excluded[i]` lists what it lost. No heavy values
    // means the light filter is the identity: the shared payload (and
    // any shared tries over it) stays instead of being copied.
    let mut cases = Vec::new();
    let mut light: Vec<Relation> = rels.to_vec();
    let mut excluded: Vec<&[Value]> = vec![&[]; l];
    for (k, &s) in split.iter().enumerate() {
        if heavy[k].is_empty() {
            continue;
        }
        // One path instance per heavy value v of xs, written from its
        // lower-numbered end attribute:
        // As_v(x(s+1)) ⋈ R(s+1) ⋈ … ⋈ R(s−2) ⋈ A(s−1)_v(x(s−1)).
        let (pred, succ) = ((s + l - 1) % l, s + 1);
        let pred_by_second = if pred == l - 1 {
            Arc::clone(&last_by_second)
        } else {
            indexes.trie(&rels[pred], &[1, 0])
        };
        let middle: Vec<usize> = (1..l - 1).map(|d| (s + d) % l).collect();
        let backward = pred < succ;
        let mut atoms = vec![(format!("A{}", s + 1), vec![x(succ)])];
        atoms.extend(
            middle
                .iter()
                .map(|&i| (format!("R{}", i + 1), vec![x(i), x(i + 1)])),
        );
        atoms.push((format!("A{}", pred + 1), vec![x(pred)]));
        if backward {
            atoms.reverse();
        }
        let (q, tree) = query_of(&atoms);
        let earlier: String = (split[..k].iter())
            .map(|&t| format!("light-{},", x(t)))
            .collect();
        let (succ_name, pred_name) = (x(succ), x(pred));
        let var = |j: usize| q.var(&x(j)).expect("the path holds every variable but xs");
        for &v in &heavy[k] {
            let from_succ = residual_unary(&rels[s], &by_first[k], v, 1, &succ_name, &[]);
            let from_pred = residual_unary(
                &rels[pred],
                &pred_by_second,
                v,
                0,
                &pred_name,
                excluded[pred],
            );
            let mut relations = vec![from_succ];
            relations.extend(middle.iter().map(|&i| light[i].clone()));
            relations.push(from_pred);
            if relations.iter().any(Relation::is_empty) {
                continue;
            }
            if backward {
                relations.reverse();
            }
            cases.push(TreeCase {
                label: format!("{earlier}heavy-{}={v}", x(s)),
                out: (0..l)
                    .map(|j| {
                        if j == s {
                            CaseOut::Fixed(v)
                        } else {
                            CaseOut::Var(var(j))
                        }
                    })
                    .collect(),
                relations,
                query: q.clone(),
                tree: tree.clone(),
            });
        }
        light[s] = light_rows(&rels[s], &heavy[k]);
        excluded[s] = &heavy[k];
    }

    // --- No split attribute heavy: one bag per chain, each of at most
    // n·Δ^(h−1) rows, weights merged along the chain. ---
    // W1(x1 … xh, xℓ) = R1ˡ ⋈ … ⋈ R(h−1)ˡ, then ⋈ Rℓ on x1.
    // W2(xh … xℓ) = Rh ⋈ R(h+1)ˡ ⋈ … ⋈ R(ℓ−1)ˡ.
    // A probe side keyed by its split attribute is exactly the shared
    // trie when the light filter was the identity; a genuinely
    // filtered payload gets a private build.
    let step_right = |bag: Relation, k: usize| {
        let s = split[k];
        let by = if light[s].shares_payload(&rels[s]) {
            Arc::clone(&by_first[k])
        } else {
            BuildEachTime.trie(&light[s], &[0, 1])
        };
        let vars = (s + 1 - bag.arity()..=s + 1).map(x).collect();
        extend_bag(&bag, bag.arity() - 1, (&light[s], &by, 1), vars, &merge)
    };
    let w1 = (1..h - 1).fold(light[0].clone(), step_right);
    let vars1: Vec<String> = (0..h).chain([l - 1]).map(x).collect();
    let closing = (&rels[l - 1], &*last_by_second, 0);
    let w1 = extend_bag(&w1, 0, closing, vars1.clone(), &merge);
    let w2 = (h - 1..split.len()).fold(rels[h - 1].clone(), step_right);
    if !w1.is_empty() && !w2.is_empty() {
        let vars2: Vec<String> = (h - 1..l).map(x).collect();
        let (q, tree) = query_of(&[("W1".to_string(), vars1), ("W2".to_string(), vars2)]);
        cases.push(TreeCase {
            label: "light-light".to_string(),
            out: (0..l)
                .map(|j| CaseOut::Var(q.var(&x(j)).expect("the bags hold every variable")))
                .collect(),
            relations: vec![w1, w2],
            query: q,
            tree,
        });
    }
    cases
}

/// Materialize all ℓ-cycle answers through the union-of-trees plan.
/// Output schema `(x1, …, xℓ)`, weight = sum of the ℓ edge weights.
/// Equivalent to Generic-Join on the cycle, but O~(n^(2−1/⌈ℓ/2⌉) + r).
pub fn cycle_join(rels: &[Relation], threshold: usize) -> Relation {
    let schema = Schema::new((1..=rels.len()).map(|i| format!("x{i}")));
    cases_join(cycle_cases(rels, threshold), schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::cycle_query;
    use anyk_query::cycles::cycle_heavy_threshold;
    use anyk_storage::RelationBuilder;

    fn edge_rel(edges: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for (i, &(x, y)) in edges.iter().enumerate() {
            b.push_ints(&[x, y], 0.5 + i as f64);
        }
        b.finish()
    }

    fn check_against_generic_join(rels: &[Relation], threshold: usize) {
        let q = cycle_query(rels.len());
        let (gj, _) = crate::generic_join::generic_join_materialize(&q, rels, None);
        let got = cycle_join(rels, threshold);
        crate::nested_loop::assert_same_result(&gj, &got);
    }

    #[test]
    fn threshold_extremes_agree() {
        let e = edge_rel(&[(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]);
        // All-heavy (threshold 0) and all-light (huge threshold) must
        // both still produce the same full result.
        for l in 3..=7 {
            let rels = vec![e.clone(); l];
            check_against_generic_join(&rels, 0);
            check_against_generic_join(&rels, 1_000_000);
            check_against_generic_join(&rels, 1);
        }
    }

    /// A hub (node 1, both directions), a light tail, and rows that
    /// repeat their values: distinct relations per atom so a case that
    /// reads the wrong relation or filter shows.
    fn hub_instance(l: usize) -> Vec<Relation> {
        (0..l as i64)
            .map(|a| {
                let mut edges = vec![(20, 21), (21, 22), (22, 20), (20, 21), (2, 3), (3, 2)];
                for i in 2..8 + a % 3 {
                    edges.push((1, i));
                    edges.push((i, 1));
                }
                edges.push((1, 2));
                edges.rotate_left(a as usize);
                edge_rel(&edges)
            })
            .collect()
    }

    #[test]
    fn every_length_keeps_multiplicities_at_every_threshold() {
        for l in 3..=7 {
            let rels = hub_instance(l);
            let n = rels.iter().map(Relation::len).max().unwrap();
            for threshold in [0, 1, 2, cycle_heavy_threshold(n, l), 6, 1_000] {
                check_against_generic_join(&rels, threshold);
            }
        }
    }

    #[test]
    fn families_follow_the_split_attributes_in_order() {
        let labels = |l: usize, threshold: usize| -> Vec<String> {
            let mut kinds: Vec<String> = cycle_cases(&hub_instance(l), threshold)
                .into_iter()
                .map(|c| c.label.split('=').next().unwrap().to_string())
                .collect();
            kinds.dedup();
            kinds
        };
        assert_eq!(
            labels(4, 3),
            ["heavy-x1", "light-x1,heavy-x3", "light-light"]
        );
        assert_eq!(
            labels(5, 3),
            [
                "heavy-x1",
                "light-x1,heavy-x2",
                "light-x1,light-x2,heavy-x4",
                "light-light"
            ]
        );
        assert_eq!(
            labels(6, 3),
            [
                "heavy-x1",
                "light-x1,heavy-x2",
                "light-x1,light-x2,heavy-x4",
                "light-x1,light-x2,light-x4,heavy-x5",
                "light-light"
            ]
        );
        assert_eq!(labels(6, 1_000), ["light-light"]);
    }

    #[test]
    fn light_bags_stay_within_n_delta_to_the_h_minus_one() {
        for l in 4..=7 {
            let rels = hub_instance(l);
            let n = rels.iter().map(Relation::len).max().unwrap();
            let delta = cycle_heavy_threshold(n, l);
            let cases = cycle_cases(&rels, delta);
            let bags = &cases.last().expect("a light-light case").relations;
            let bound = n * delta.pow(l.div_ceil(2) as u32 - 1);
            assert!(bags.iter().all(|w| w.len() <= bound), "l = {l}");
        }
    }

    #[test]
    fn trie_requests_list_what_every_instance_asks_for() {
        assert_eq!(
            cycle_trie_requests(4),
            [(0, vec![0, 1]), (2, vec![0, 1]), (3, vec![1, 0])]
        );
        assert_eq!(
            cycle_trie_requests(5),
            [
                (0, vec![0, 1]),
                (1, vec![0, 1]),
                (3, vec![0, 1]),
                (4, vec![1, 0])
            ]
        );
    }

    #[test]
    fn weights_sum_all_edges() {
        let rels = vec![
            edge_rel(&[(1, 2)]), // w = 0.5
            edge_rel(&[(2, 3)]), // w = 0.5
            edge_rel(&[(3, 4)]), // w = 0.5
            edge_rel(&[(4, 5)]), // w = 0.5
            edge_rel(&[(5, 1)]), // w = 0.5
        ];
        let res = cycle_join(&rels, 10);
        assert_eq!(res.len(), 1);
        assert!((res.weight(0).get() - 2.5).abs() < 1e-9);
    }
}
