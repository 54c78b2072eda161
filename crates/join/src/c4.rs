//! The submodular-width plan for the 4-cycle — §3's headline example:
//! fractional hypertree width 2, but submodular width 1.5, achieved by a
//! **union of multiple trees**, each receiving a subset of the input.
//!
//! Query: `R1(x1,x2) ⋈ R2(x2,x3) ⋈ R3(x3,x4) ⋈ R4(x4,x1)`.
//! With `Δ = ceil(sqrt(n))` and heavy = degree > Δ, the output is
//! partitioned into three disjoint cases, each solved by an *acyclic*
//! instance (or a family of them):
//!
//! * **A** — `x1` heavy (at most `n/Δ ≈ sqrt(n)` such values): for each
//!   heavy value `v`, the residual query is a path
//!   `A1_v(x2) ⋈ R2(x2,x3) ⋈ R3(x3,x4) ⋈ A4_v(x4)` of input size O(n).
//! * **B** — `x1` light and `x3` heavy: symmetric family of paths
//!   `A2_u(x2) ⋈ R1ˡ(x1,x2) ⋈ R4(x4,x1) ⋈ A3_u(x4)`.
//! * **C** — both light: two materialized bags
//!   `W1(x1,x2,x4) = R1ˡ ⋈ R4` and `W2(x2,x3,x4) = R2 ⋈ R3ˡ`, each of
//!   size ≤ Δ·n = O(n^1.5), joined as a two-node acyclic tree.
//!
//! Total preprocessing O~(n^1.5); enumeration output-linear. Batch,
//! Boolean, and ranked execution all consume this case list
//! ([`crate::cases`]; ranked enumeration merges one T-DP stream per
//! case in `anyk_core::cyclic`).

use crate::cases::{cases_join, CaseOut, TreeCase};
use anyk_query::cq::{ConjunctiveQuery, QueryBuilder};
use anyk_query::gyo::{gyo_reduce, GyoResult};
use anyk_query::join_tree::JoinTree;
use anyk_storage::{
    BuildEachTime, FxHashMap, FxHashSet, IndexProvider, Relation, RelationBuilder, RowId, Schema,
    Trie, Value, Weight,
};
use std::sync::Arc;

/// Heavy values of `t`'s first level: more than `threshold` rows below.
/// The first trie level enumerates the column's distinct values, so the
/// subtree row count *is* the per-value degree.
fn heavy_from_trie(t: &Trie, threshold: usize) -> FxHashSet<Value> {
    let root = t.root();
    (root.start..root.end)
        .filter(|&i| t.rows_below(root, i).len() > threshold)
        .map(|i| t.value_at(root, i))
        .collect()
}

/// Rows of `rel` whose `col` value passes `pred`, as a new relation.
fn filter_by<F: Fn(Value) -> bool>(rel: &Relation, col: usize, pred: F) -> Relation {
    let mut b = RelationBuilder::new(rel.schema().clone());
    for (_, row, weight) in rel.iter() {
        if pred(row[col]) {
            b.push(row, weight);
        }
    }
    b.finish()
}

/// Unary projection `{ rel[keep_col] : rel[match_col] = v }`, carrying
/// the original tuples' weights, answered from the shared trie whose
/// first level is `match_col`. Matching row ids are re-sorted into
/// input order so the residual is byte-identical to a direct scan.
fn residual_unary(rel: &Relation, t: &Trie, v: Value, keep_col: usize, name: &str) -> Relation {
    let mut b = RelationBuilder::new(Schema::new([name.to_string()]));
    let root = t.root();
    if let Some(i) = t.find(root, v) {
        let mut ids: Vec<RowId> = t.rows_below(root, i).to_vec();
        ids.sort_unstable();
        for r in ids {
            b.push(&[rel.row(r)[keep_col]], rel.weight(r));
        }
    }
    b.finish()
}

/// Point probes into a trie's first level by rows that arrive in no
/// particular order and repeat their values (the light-light bag
/// joins). The rows below each value that is found are re-sorted into
/// input order once and kept behind a hash of the value, so a repeated
/// probe is one lookup instead of a binary search of the level plus a
/// copy and a sort of the matching ids. Values the trie does not hold
/// are not remembered: a probe side that never matches costs a search
/// per row and no memory.
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

fn tree_of(q: &ConjunctiveQuery) -> JoinTree {
    match gyo_reduce(q) {
        GyoResult::Acyclic(t) => t,
        GyoResult::Cyclic(_) => panic!("case query must be acyclic"),
    }
}

/// Build the full union-of-trees case list for the 4-cycle instance
/// `rels = [R1, R2, R3, R4]` (each binary, oriented as in
/// [`anyk_query::cq::cycle_query`]). `threshold` is the heavy-degree
/// cutoff Δ (use [`anyk_query::cycles::heavy_threshold`] of the max
/// relation size).
///
/// Weights are merged with `+` — the paper's default Sum ranking. For
/// any other scalar ranking use [`c4_cases_with`] and pass its
/// weight-level combine: the light-light case pre-joins `R1ˡ ⋈ R4` and
/// `R2 ⋈ R3ˡ` into bag relations, so two edge weights collapse into
/// one bag-tuple weight *under the ranking's own `⊗`* — summing here
/// and then `max`-ing downstream would rank wrong answers first.
pub fn c4_cases(rels: &[Relation], threshold: usize) -> Vec<TreeCase> {
    c4_cases_with(rels, threshold, |a, b| Weight::new(a.get() + b.get()))
}

/// [`c4_cases`] with an explicit weight merge for the pre-joined
/// light-light bags. `merge` must be the weight-level `⊗` of the
/// ranking the cases will be enumerated under (commutative, since the
/// two bags cover the four atoms in different orders).
pub fn c4_cases_with(
    rels: &[Relation],
    threshold: usize,
    merge: impl Fn(Weight, Weight) -> Weight,
) -> Vec<TreeCase> {
    c4_cases_provider(rels, threshold, merge, &BuildEachTime)
}

/// The shared-trie requests [`c4_cases_provider`] makes
/// unconditionally, as `(atom index, trie positions)` pairs: `R1` and
/// `R3` by their first column, `R4` reversed. `R2`'s reversed trie is
/// requested only when heavy `x3` values exist, so it is omitted — a
/// probe over this listing answers "is prepare a pure index lookup for
/// the tries every instance needs?" without inspecting the data.
pub fn c4_trie_requests() -> Vec<(usize, Vec<usize>)> {
    vec![(0, vec![0, 1]), (2, vec![0, 1]), (3, vec![1, 0])]
}

/// [`c4_cases_with`] with trie construction delegated to a shared
/// [`IndexProvider`]. Every trie the case construction needs — degree
/// counting, heavy-value residuals, and the light-light bag joins — is
/// resolved through `indexes`, so a warm catalog turns the O~(n)
/// index-build portion of preprocessing into lookups. Derived
/// (light-filtered) relations never touch the shared catalog: when
/// heavy values exist the filtered payload is fresh and gets a private
/// build; when none exist the unfiltered payload (and its shared trie)
/// is reused as-is.
pub fn c4_cases_provider(
    rels: &[Relation],
    threshold: usize,
    merge: impl Fn(Weight, Weight) -> Weight,
    indexes: &dyn IndexProvider,
) -> Vec<TreeCase> {
    assert_eq!(rels.len(), 4, "4-cycle needs exactly 4 relations");
    for r in rels {
        assert_eq!(r.arity(), 2, "4-cycle relations are binary");
    }
    let (r1, r2, r3, r4) = (&rels[0], &rels[1], &rels[2], &rels[3]);
    let mut cases = Vec::new();

    // Shared tries: R1 and R3 ordered by their x-column (degrees +
    // residuals + the W2 bag), R4 ordered by x1 (residuals + the W1
    // bag). R2's [1,0] trie is only needed for Case B residuals and is
    // requested lazily below.
    let t1 = indexes.trie(r1, &[0, 1]);
    let t3 = indexes.trie(r3, &[0, 1]);
    let t4 = indexes.trie(r4, &[1, 0]);

    // Heavy sets: H1 = heavy x1 values (by out-degree in R1), H3 = heavy
    // x3 values (by out-degree in R3).
    let h1 = heavy_from_trie(&t1, threshold);
    let h3 = heavy_from_trie(&t3, threshold);

    // --- Case A: one path instance per heavy x1 value v. ---
    // A1_v(x2) ⋈ R2(x2,x3) ⋈ R3(x3,x4) ⋈ A4_v(x4).
    let case_a_query = QueryBuilder::new()
        .atom("A1", &["x2"])
        .atom("R2", &["x2", "x3"])
        .atom("R3", &["x3", "x4"])
        .atom("A4", &["x4"])
        .build();
    let mut heavy1: Vec<Value> = h1.iter().copied().collect();
    heavy1.sort();
    for &v in &heavy1 {
        let a1 = residual_unary(r1, &t1, v, 1, "x2");
        let a4 = residual_unary(r4, &t4, v, 0, "x4");
        if a1.is_empty() || a4.is_empty() {
            continue;
        }
        let q = case_a_query.clone();
        let tree = tree_of(&q);
        cases.push(TreeCase {
            label: format!("heavy-x1={v}"),
            out: vec![
                CaseOut::Fixed(v),
                CaseOut::Var(q.var("x2").unwrap()),
                CaseOut::Var(q.var("x3").unwrap()),
                CaseOut::Var(q.var("x4").unwrap()),
            ],
            relations: vec![a1, r2.clone(), r3.clone(), a4],
            query: q,
            tree,
        });
    }

    // --- Case B: x1 light, x3 heavy: per heavy u. ---
    // A2_u(x2) ⋈ R1ˡ(x1,x2) ⋈ R4(x4,x1) ⋈ A3_u(x4).
    // No heavy x1 values means the light filter is the identity: keep
    // the shared payload (and any shared tries over it) instead of
    // copying.
    let r1_light = if h1.is_empty() {
        r1.clone()
    } else {
        filter_by(r1, 0, |v| !h1.contains(&v))
    };
    let case_b_query = QueryBuilder::new()
        .atom("A2", &["x2"])
        .atom("R1", &["x1", "x2"])
        .atom("R4", &["x4", "x1"])
        .atom("A3", &["x4"])
        .build();
    let mut heavy3: Vec<Value> = h3.iter().copied().collect();
    heavy3.sort();
    let t2 = if heavy3.is_empty() {
        None
    } else {
        Some(indexes.trie(r2, &[1, 0]))
    };
    for &u in &heavy3 {
        let t2 = t2.as_ref().expect("built when heavy3 is non-empty");
        let a2 = residual_unary(r2, t2, u, 0, "x2");
        let a3 = residual_unary(r3, &t3, u, 1, "x4");
        if a2.is_empty() || a3.is_empty() || r1_light.is_empty() {
            continue;
        }
        let q = case_b_query.clone();
        let tree = tree_of(&q);
        cases.push(TreeCase {
            label: format!("light-x1,heavy-x3={u}"),
            out: vec![
                CaseOut::Var(q.var("x1").unwrap()),
                CaseOut::Var(q.var("x2").unwrap()),
                CaseOut::Fixed(u),
                CaseOut::Var(q.var("x4").unwrap()),
            ],
            relations: vec![a2, r1_light.clone(), r4.clone(), a3],
            query: q,
            tree,
        });
    }

    // --- Case C: both light: two materialized bags of size <= Δ·n. ---
    // W1(x1,x2,x4) = R1ˡ ⋈ R4 (join on x1), weight w1 ⊗ w4.
    // W2(x2,x3,x4) = R2 ⋈ R3ˡ (join on x3), weight w2 ⊗ w3.
    let r3_light = if h3.is_empty() {
        r3.clone()
    } else {
        filter_by(r3, 0, |v| !h3.contains(&v))
    };
    // The W2 probe side needs R3ˡ keyed by x3: when the light filter
    // was the identity that is exactly the shared `t3`; a genuinely
    // filtered payload gets a private build.
    let t3l = if r3_light.shares_payload(r3) {
        Arc::clone(&t3)
    } else {
        BuildEachTime.trie(&r3_light, &[0, 1])
    };
    let w1 = {
        let mut b = RelationBuilder::new(Schema::new(["x1", "x2", "x4"]));
        let mut by_x1 = RowsByValue::of(&t4); // R4(x4, x1) keyed by x1
        for (_, row, weight) in r1_light.iter() {
            for &j in by_x1.rows(row[0]) {
                b.push(&[row[0], row[1], r4.row(j)[0]], merge(weight, r4.weight(j)));
            }
        }
        b.finish()
    };
    let w2 = {
        let mut b = RelationBuilder::new(Schema::new(["x2", "x3", "x4"]));
        let mut by_x3 = RowsByValue::of(&t3l); // R3ˡ(x3, x4) keyed by x3
        for (_, row, weight) in r2.iter() {
            for &j in by_x3.rows(row[1]) {
                let w = merge(weight, r3_light.weight(j));
                b.push(&[row[0], row[1], r3_light.row(j)[1]], w);
            }
        }
        b.finish()
    };
    if !w1.is_empty() && !w2.is_empty() {
        let q = QueryBuilder::new()
            .atom("W1", &["x1", "x2", "x4"])
            .atom("W2", &["x2", "x3", "x4"])
            .build();
        let tree = tree_of(&q);
        cases.push(TreeCase {
            label: "light-light".to_string(),
            out: vec![
                CaseOut::Var(q.var("x1").unwrap()),
                CaseOut::Var(q.var("x2").unwrap()),
                CaseOut::Var(q.var("x3").unwrap()),
                CaseOut::Var(q.var("x4").unwrap()),
            ],
            relations: vec![w1, w2],
            query: q,
            tree,
        });
    }
    cases
}

/// Materialize all 4-cycle answers through the union-of-trees plan.
/// Output schema `(x1,x2,x3,x4)`, weight = sum of the four edge weights.
/// Equivalent to Generic-Join on the cycle, but O~(n^1.5 + r).
pub fn c4_join(rels: &[Relation], threshold: usize) -> Relation {
    cases_join(
        &c4_cases(rels, threshold),
        Schema::new(["x1", "x2", "x3", "x4"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::cycle_query;
    use anyk_query::cycles::heavy_threshold;
    use anyk_storage::RelationBuilder;

    fn edge_rel(edges: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for (i, &(x, y)) in edges.iter().enumerate() {
            b.push_ints(&[x, y], 0.5 + i as f64);
        }
        b.finish()
    }

    fn check_against_generic_join(rels: &[Relation], threshold: usize) {
        let q = cycle_query(4);
        let (gj, _) = crate::generic_join::generic_join_materialize(&q, rels, None);
        let c4 = c4_join(rels, threshold);
        crate::nested_loop::assert_same_result(&gj, &c4);
    }

    #[test]
    fn simple_cycle_instance() {
        let e = edge_rel(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        check_against_generic_join(&rels, 2);
    }

    #[test]
    fn star_heavy_instance() {
        // Hub node 1 has high degree -> exercises heavy cases.
        let mut edges = vec![];
        for i in 2..12 {
            edges.push((1, i));
            edges.push((i, 1));
        }
        let e = edge_rel(&edges);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        check_against_generic_join(&rels, heavy_threshold(edges.len()));
    }

    #[test]
    fn threshold_extremes_agree() {
        let e = edge_rel(&[(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        // All-heavy (threshold 0) and all-light (huge threshold) must
        // both still produce the same full result.
        check_against_generic_join(&rels, 0);
        check_against_generic_join(&rels, 1_000_000);
        check_against_generic_join(&rels, 1);
    }

    #[test]
    fn distinct_relations() {
        let rels = vec![
            edge_rel(&[(1, 2), (1, 3)]),
            edge_rel(&[(2, 5), (3, 5), (3, 6)]),
            edge_rel(&[(5, 7), (6, 7), (5, 8)]),
            edge_rel(&[(7, 1), (8, 1), (8, 2)]),
        ];
        check_against_generic_join(&rels, 1);
    }

    #[test]
    fn empty_input() {
        let rels = vec![
            edge_rel(&[]),
            edge_rel(&[(1, 2)]),
            edge_rel(&[(2, 3)]),
            edge_rel(&[(3, 1)]),
        ];
        let res = c4_join(&rels, 1);
        assert!(res.is_empty());
    }

    #[test]
    fn provider_cases_match_private_builds() {
        use anyk_storage::IndexCatalog;
        // Hub node exercises heavy x1/x3 (residuals + lazy R2 trie);
        // the light tail exercises the bag joins.
        let mut edges = vec![(20, 21), (21, 22), (22, 20)];
        for i in 2..10 {
            edges.push((1, i));
            edges.push((i, 1));
        }
        let e = edge_rel(&edges);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        let threshold = 2;
        let merge = |a: Weight, b: Weight| Weight::new(a.get() + b.get());
        let catalog = IndexCatalog::default();
        let base = c4_cases_with(&rels, threshold, merge);
        let shared = c4_cases_provider(&rels, threshold, merge, &catalog);
        assert_eq!(base.len(), shared.len());
        for (b, s) in base.iter().zip(&shared) {
            assert_eq!(b.label, s.label);
            assert_eq!(b.out, s.out);
            assert_eq!(b.relations.len(), s.relations.len());
            for (br, sr) in b.relations.iter().zip(&s.relations) {
                assert_eq!(br.len(), sr.len(), "case {}", b.label);
                for i in 0..br.len() as u32 {
                    assert_eq!(br.row(i), sr.row(i), "case {}", b.label);
                    assert_eq!(br.weight(i), sr.weight(i), "case {}", b.label);
                }
            }
        }
        // One payload, two canonical orders ([0,1] and [1,0]): two
        // builds total, and a second construction is all hits.
        assert_eq!(catalog.stats().builds, 2);
        c4_cases_provider(&rels, threshold, merge, &catalog);
        assert_eq!(catalog.stats().builds, 2);
    }

    #[test]
    fn weights_sum_all_four_edges() {
        let rels = vec![
            edge_rel(&[(1, 2)]), // w = 0.5
            edge_rel(&[(2, 3)]), // w = 0.5
            edge_rel(&[(3, 4)]), // w = 0.5
            edge_rel(&[(4, 1)]), // w = 0.5
        ];
        let res = c4_join(&rels, 10);
        assert_eq!(res.len(), 1);
        assert!((res.weight(0).get() - 2.0).abs() < 1e-9);
    }
}
