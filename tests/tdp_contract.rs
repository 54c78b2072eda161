//! The T-DP preprocessing contract, checked against nested-loop
//! references (see the "Order contract" sections of `join::semijoin`
//! and `core::tdp`):
//!
//! * the full reducer keeps exactly the rows that take part in some
//!   answer, in input order, values and weights untouched;
//! * a slot's join-key groups partition its reduced rows, every group's
//!   members ascend by row id, groups are numbered in ascending key
//!   order, and a parent row names the group holding exactly the child
//!   rows it joins;
//! * a group's best member breaks cost ties by row id;
//! * an edge without a shared variable (a cartesian product) is one
//!   group, and an empty side empties the other;
//! * the ranked (and unranked) emission order does not depend on how
//!   groups are numbered: the streams of tie-heavy instances are
//!   byte-identical to the ones recorded at the parent commit, whose
//!   groups were numbered in hash-iteration order.

mod common;

use anyk::core::{LexWeights, RankedAnswer};
use anyk::join::semijoin::{full_reducer, join_key_positions, Reduction};
use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;
use anyk::query::join_tree::JoinTree;
use anyk::storage::RowId;
use common::gen::cases_from_env;
use common::oracle::check_engine_against_oracle;
use proptest::prelude::*;
use std::sync::Arc;

/// Every answer as one row id per atom, atom 0 outermost, rows
/// ascending.
fn answers(q: &ConjunctiveQuery, rels: &[Relation]) -> Vec<Vec<RowId>> {
    fn rec(
        q: &ConjunctiveQuery,
        rels: &[Relation],
        atom: usize,
        binding: &mut Vec<Option<Value>>,
        rows: &mut Vec<RowId>,
        out: &mut Vec<Vec<RowId>>,
    ) {
        if atom == rels.len() {
            out.push(rows.clone());
            return;
        }
        'rows: for (id, tuple, _) in rels[atom].iter() {
            let saved = binding.clone();
            for (pos, &v) in q.atom(atom).vars.iter().enumerate() {
                if *binding[v].get_or_insert(tuple[pos]) != tuple[pos] {
                    *binding = saved;
                    continue 'rows;
                }
            }
            rows.push(id);
            rec(q, rels, atom + 1, binding, rows, out);
            rows.pop();
            *binding = saved;
        }
    }
    let mut out = Vec::new();
    let mut binding = vec![None; q.num_vars()];
    rec(q, rels, 0, &mut binding, &mut Vec::new(), &mut out);
    out
}

fn rows_of(rel: &Relation) -> Vec<(Vec<Value>, Weight)> {
    rel.iter().map(|(_, row, w)| (row.to_vec(), w)).collect()
}

/// The whole reducer-and-grouping contract on one instance.
fn check_contract(q: &ConjunctiveQuery, tree: &JoinTree, rels: &[Relation], label: &str) {
    // Reduction: a row survives iff some answer uses it; order kept.
    let all = answers(q, rels);
    let mut reduced = rels.to_vec();
    let reduction = Reduction::run(q, tree, &mut reduced);
    for (atom, rel) in rels.iter().enumerate() {
        let want: Vec<(Vec<Value>, Weight)> = (rel.iter())
            .filter(|(id, _, _)| all.iter().any(|a| a[atom] == *id))
            .map(|(_, row, w)| (row.to_vec(), w))
            .collect();
        assert_eq!(
            rows_of(&reduced[atom]),
            want,
            "{label}: reduced atom {atom}"
        );
    }
    let mut again = rels.to_vec();
    full_reducer(q, tree, &mut again);
    assert_eq!(
        again, reduced,
        "{label}: full_reducer is the same reduction"
    );

    // Grouping, per non-root node.
    for node in 0..tree.len() {
        let Some(parent) = tree.node(node).parent else {
            continue;
        };
        let (child, parent) = (
            &reduced[tree.node(node).atom],
            &reduced[tree.node(parent).atom],
        );
        let (cpos, ppos) = join_key_positions(q, tree, node);
        let g = reduction.groups(node);
        assert_eq!(g.offsets[0], 0, "{label}: node {node}");
        assert_eq!(g.rows.len(), child.len(), "{label}: node {node} partitions");
        assert_eq!(g.of_parent_row.len(), parent.len(), "{label}: node {node}");
        let mut keys: Vec<Vec<Value>> = Vec::new();
        for w in g.offsets.windows(2) {
            let members = &g.rows[w[0] as usize..w[1] as usize];
            assert!(
                !members.is_empty(),
                "{label}: node {node} has an empty group"
            );
            assert!(
                members.windows(2).all(|m| m[0] < m[1]),
                "{label}: node {node} members ascend by row id: {members:?}"
            );
            let key = child.key(members[0], &cpos);
            assert!(members.iter().all(|&r| child.key(r, &cpos) == key));
            keys.push(key);
        }
        assert_eq!(*g.offsets.last().unwrap() as usize, child.len());
        assert!(
            keys.windows(2).all(|k| k[0] < k[1]),
            "{label}: node {node} groups are in ascending key order: {keys:?}"
        );
        for (p, _, _) in parent.iter() {
            let joins: Vec<RowId> = (child.iter())
                .filter(|(c, _, _)| child.key(*c, &cpos) == parent.key(p, &ppos))
                .map(|(c, _, _)| c)
                .collect();
            let group = g.of_parent_row[p as usize] as usize;
            let members = &g.rows[g.offsets[group] as usize..g.offsets[group + 1] as usize];
            assert_eq!(members, &joins[..], "{label}: node {node}, parent row {p}");
        }
    }
}

fn rel_of(cols: &[&str], rows: &[(&[Value], f64)]) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(cols.iter().copied()));
    for (row, w) in rows {
        b.push(row, Weight::new(*w));
    }
    b.finish()
}

fn ints(cols: &[&str], rows: &[(&[i64], f64)]) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(cols.iter().copied()));
    for (row, w) in rows {
        b.push_ints(row, *w);
    }
    b.finish()
}

fn gyo_tree(q: &ConjunctiveQuery) -> JoinTree {
    match gyo_reduce(q) {
        GyoResult::Acyclic(tree) => tree,
        GyoResult::Cyclic(_) => panic!("acyclic query expected"),
    }
}

#[test]
fn one_column_key_with_dangling_rows_on_both_sides_and_duplicates() {
    let q = path_query(3);
    let rels = vec![
        ints(
            &["a", "b"],
            &[
                (&[1, 5], 1.0),
                (&[2, 9], 0.0),
                (&[3, 5], 2.0),
                (&[4, 3], 0.5),
            ],
        ),
        // (5, 7) twice with different weights; (8, 7) dangles upward.
        ints(
            &["b", "c"],
            &[
                (&[5, 7], 2.0),
                (&[8, 7], 0.0),
                (&[3, 6], 1.0),
                (&[5, 7], 0.25),
                (&[3, 1], 1.0),
            ],
        ),
        ints(
            &["c", "d"],
            &[(&[7, 0], 1.0), (&[6, 0], 1.0), (&[4, 0], 9.0)],
        ),
    ];
    for parents in [
        [None, Some(0), Some(1)],
        [Some(1), None, Some(1)],
        [Some(1), Some(2), None],
    ] {
        let tree = JoinTree::from_parents(&q, &parents);
        check_contract(&q, &tree, &rels, &format!("chain {parents:?}"));
    }
}

#[test]
fn two_column_key_and_repeated_variable_atoms() {
    // R(x, y, z) ⋈ S(y, z, y): the key is (y, z), and S repeats y.
    let q = QueryBuilder::new()
        .atom("R", &["x", "y", "z"])
        .atom("S", &["y", "z", "y"])
        .atom("T", &["z", "w"])
        .build();
    let rels = vec![
        ints(
            &["x", "y", "z"],
            &[
                (&[1, 2, 3], 1.0),
                (&[1, 3, 2], 1.0),
                (&[2, 2, 3], 0.5),
                (&[3, 2, 4], 0.5),
                (&[4, 9, 9], 0.0),
            ],
        ),
        ints(
            &["y", "z", "y2"],
            &[
                (&[2, 3, 2], 1.0),
                (&[2, 3, 7], 0.0), // fails y = y2
                (&[3, 2, 3], 2.0),
                (&[2, 4, 2], 1.0),
                (&[2, 3, 2], 3.0),
                (&[5, 5, 5], 0.0),
            ],
        ),
        ints(
            &["z", "w"],
            &[(&[3, 0], 0.0), (&[2, 0], 0.0), (&[3, 1], 1.0)],
        ),
    ];
    check_contract(&q, &gyo_tree(&q), &rels, "two-column key");
    let star = JoinTree::from_parents(&q, &[Some(1), None, Some(1)]);
    check_contract(&q, &star, &rels, "two-column key, S at the root");
}

#[test]
fn mixed_int_float_sym_key_values() {
    let q = path_query(2);
    let (i, f, s) = (Value::Int(1), Value::float(1.0), Value::Sym(1));
    let rels = vec![
        rel_of(
            &["a", "b"],
            &[
                (&[Value::Int(0), s], 1.0),
                (&[Value::Int(1), f], 0.0),
                (&[Value::Int(2), i], 2.0),
                (&[Value::Int(3), Value::float(-0.5)], 2.0),
                (&[Value::Int(4), s], 0.0),
            ],
        ),
        rel_of(
            &["b", "c"],
            &[
                (&[f, Value::Int(9)], 0.0),
                (&[s, Value::Int(8)], 0.0),
                (&[Value::Sym(2), Value::Int(7)], 0.0),
                (&[i, Value::Int(6)], 0.0),
                (&[f, Value::Int(5)], 1.0),
            ],
        ),
    ];
    for parents in [[None, Some(0)], [Some(1), None]] {
        let tree = JoinTree::from_parents(&q, &parents);
        check_contract(&q, &tree, &rels, &format!("mixed types {parents:?}"));
    }
}

#[test]
fn an_instance_that_reduces_to_empty() {
    let q = path_query(3);
    let rels = vec![
        ints(&["a", "b"], &[(&[1, 2], 0.0), (&[1, 3], 0.0)]),
        ints(&["b", "c"], &[(&[2, 5], 0.0), (&[3, 6], 0.0)]),
        ints(&["c", "d"], &[(&[7, 0], 0.0)]),
    ];
    let tree = gyo_tree(&q);
    check_contract(&q, &tree, &rels, "empty");
    let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
    assert!(inst.is_empty());
    assert_eq!(
        AnyKPart::new(Arc::new(inst), SuccessorKind::Eager).count(),
        0
    );
}

#[test]
fn star_trees() {
    let q = star_query(3);
    let rels = vec![
        ints(
            &["o", "a"],
            &[
                (&[1, 0], 1.0),
                (&[2, 0], 0.0),
                (&[1, 1], 0.0),
                (&[3, 3], 0.0),
            ],
        ),
        ints(
            &["o", "b"],
            &[
                (&[2, 5], 1.0),
                (&[1, 5], 1.0),
                (&[2, 6], 0.0),
                (&[4, 4], 0.0),
            ],
        ),
        ints(
            &["o", "c"],
            &[(&[1, 7], 0.5), (&[2, 7], 0.5), (&[1, 8], 0.5)],
        ),
    ];
    check_contract(&q, &gyo_tree(&q), &rels, "star, gyo tree");
    let star = JoinTree::from_parents(&q, &[None, Some(0), Some(0)]);
    check_contract(&q, &star, &rels, "star, explicit");
}

#[test]
fn selective_joins_sort_only_the_rows_still_kept() {
    // Hundreds of distinct keys and a selective last relation: rooted
    // at the first atom, the middle relation is cut to a fifth by its
    // child before it is sorted again as a child itself — over a
    // key-column copy of the kept rows only.
    let q = path_query(3);
    let edges = |rows, seed| common::gen::scrambled_edges(rows, 400, seed);
    let wide = vec![edges(600, 11), edges(600, 12), edges(100, 13)];
    // A side holding one key value is applied to the other side as a
    // selection before that side is sorted: a one-row first relation,
    // and a last relation whose rows all carry the same join value.
    let one_key = vec![
        ints(&["a", "b"], &[(&[3, 7], 1.0)]),
        ints(
            &["b", "c"],
            &[
                (&[7, 9], 0.5),
                (&[7, 8], 1.0),
                (&[6, 9], 0.0),
                (&[7, 9], 0.25),
                (&[5, 5], 0.0),
                (&[2, 9], 3.0),
            ],
        ),
        ints(
            &["c", "d"],
            &[(&[9, 1], 0.0), (&[9, 2], 2.0), (&[9, 1], 1.0)],
        ),
    ];
    for (rels, label) in [(&wide, "wide"), (&one_key, "one key")] {
        for parents in [
            [None, Some(0), Some(1)],
            [Some(1), None, Some(1)],
            [Some(1), Some(2), None],
        ] {
            let tree = JoinTree::from_parents(&q, &parents);
            check_contract(&q, &tree, rels, &format!("{label} {parents:?}"));
        }
    }
}

/// The instance behind the tie-break and byte-identity checks: `n`
/// relations of `rows` rows over `domain` values, weights from the
/// two-value set {0, 1}.
fn tie_heavy(n: usize, rows: u64, domain: u64, seed: u64) -> Vec<Relation> {
    (0..n as u64)
        .map(|i| {
            let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
            let mut x = (seed + 977 * i) | 1;
            for _ in 0..rows {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (u, v) = ((x % domain) as i64, ((x >> 17) % domain) as i64);
                b.push_ints(&[u, v], ((x >> 37) % 2) as f64);
            }
            b.finish()
        })
        .collect()
}

#[test]
fn a_groups_best_member_breaks_cost_ties_by_row_id() {
    // One root row; its child group has three members of cost 1, the
    // first of them (row 1) carrying the *largest* value, so neither a
    // value order nor a reverse row order would pick it.
    let q = path_query(2);
    let tree = JoinTree::from_parents(&q, &[None, Some(0)]);
    let rels = vec![
        ints(&["a", "b"], &[(&[0, 5], 0.0)]),
        ints(
            &["b", "c"],
            &[
                (&[5, 1], 2.0),
                (&[5, 9], 1.0),
                (&[5, 3], 1.0),
                (&[5, 4], 1.0),
            ],
        ),
    ];
    let inst = Arc::new(TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap());
    for kind in SuccessorKind::ALL_KINDS {
        let got: Vec<Vec<i64>> = AnyKPart::new(Arc::clone(&inst), kind)
            .map(|a| a.values.iter().map(|v| v.int()).collect())
            .collect();
        // The best is row 1; how later ties leave is the kind's own
        // business, and Eager's shared order is `(cost, row)` throughout.
        assert_eq!(got[0], [0, 5, 9], "{kind:?}");
        assert_eq!(got[3], [0, 5, 1], "{kind:?}");
        if kind == SuccessorKind::Eager {
            assert_eq!(got[1..3], [[0, 5, 3], [0, 5, 4]]);
        }
    }
    let first = AnyKRec::new(inst).next().unwrap();
    assert_eq!(
        first.values[2],
        Value::Int(9),
        "REC's top-1 follows the same best"
    );
}

/// FNV-1a over an emitted sequence: values, then the cost's weights.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

trait CostWords {
    fn words(&self, d: &mut Digest);
}

impl CostWords for Weight {
    fn words(&self, d: &mut Digest) {
        d.word(self.get().to_bits());
    }
}

impl CostWords for LexWeights {
    fn words(&self, d: &mut Digest) {
        for w in self.as_slice() {
            w.words(d);
        }
    }
}

fn digest<C: CostWords>(stream: impl Iterator<Item = RankedAnswer<C>>) -> (usize, u64) {
    let mut d = Digest::new();
    let mut n = 0;
    for a in stream {
        n += 1;
        for v in &a.values {
            d.word(v.int() as u64);
        }
        a.cost.words(&mut d);
    }
    (n, d.0)
}

/// `(answers, digest)` of every enumerator over one prepared instance:
/// the five PART successor kinds, REC, and the unranked odometer.
fn stream_digests<R: RankingFunction>(
    q: &ConjunctiveQuery,
    tree: &JoinTree,
    rels: &[Relation],
) -> Vec<(usize, u64)>
where
    R::Cost: CostWords,
{
    let prepare = || TdpInstance::<R>::prepare(q, tree, rels.to_vec()).unwrap();
    let inst = Arc::new(prepare());
    let mut out: Vec<(usize, u64)> = (SuccessorKind::ALL_KINDS.iter())
        .map(|&kind| digest(AnyKPart::new(Arc::clone(&inst), kind)))
        .collect();
    out.push(digest(AnyKRec::new(inst)));
    out.push(digest(UnrankedEnum::new(prepare())));
    out
}

#[test]
fn emission_order_does_not_depend_on_group_numbering() {
    // Recorded by running this very function at the parent commit
    // (d815e40), where groups were numbered in hash-iteration order;
    // sort-merge numbers them in key order. Groups are only ever
    // reached through `group_of_parent_row`, and candidates of equal
    // cost leave the queue in insertion order, so nothing moves.
    #[rustfmt::skip]
    const GOLDEN: [[(usize, u64); 7]; 4] = [
        [(5692, 0xcf62c3c70f2d4cdf), (5692, 0x0152fbea1f9b1907), (5692, 0x35711f326fca0bc7), (5692, 0xcf62c3c70f2d4cdf), (5692, 0xcf62c3c70f2d4cdf), (5692, 0x33574368e8ab4b03), (5692, 0x621ac4ef4051136b)],
        [(5692, 0x1d2f6909061b281f), (5692, 0xb7b9777f678d799b), (5692, 0x5ca226eeee8eaaa7), (5692, 0x1d2f6909061b281f), (5692, 0x1d2f6909061b281f), (5692, 0x0a7f028b50c8c9f3), (5692, 0x0f9dde290784e38f)],
        [(1607, 0xb4c2dde792f47f1e), (1607, 0xd9caea422d24fa82), (1607, 0x0227e4bb7b670d62), (1607, 0xb4c2dde792f47f1e), (1607, 0xb4c2dde792f47f1e), (1607, 0x87fc78a03679006a), (1607, 0xa2a2b57326571ee2)],
        [(1607, 0xbf5c752012c5e597), (1607, 0x91e6afec34d0e92b), (1607, 0x9aa45872a0e66e2b), (1607, 0xbf5c752012c5e597), (1607, 0xbf5c752012c5e597), (1607, 0x740f495954aff34f), (1607, 0xd8a102789ab2a0af)],
    ];
    let path = path_query(4);
    let path_tree = JoinTree::from_parents(&path, &[None, Some(0), Some(1), Some(2)]);
    let star = star_query(3);
    let star_tree = JoinTree::from_parents(&star, &[None, Some(0), Some(0)]);
    let (path_rels, star_rels) = (tie_heavy(4, 30, 5, 42), tie_heavy(3, 40, 6, 7));
    let got = [
        stream_digests::<SumCost>(&path, &path_tree, &path_rels),
        stream_digests::<LexCost>(&path, &path_tree, &path_rels),
        stream_digests::<SumCost>(&star, &star_tree, &star_rels),
        stream_digests::<LexCost>(&star, &star_tree, &star_rels),
    ];
    let labels = ["path4 sum", "path4 lex", "star3 sum", "star3 lex"];
    for ((got, want), label) in got.iter().zip(GOLDEN).zip(labels) {
        assert!(
            got[0].0 > 1_000,
            "{label}: a tie-heavy instance with thousands of answers"
        );
        assert_eq!(
            got[..],
            want[..],
            "{label}: Eager, All, Take2, Lazy, Quick, REC, unranked"
        );
    }
}

#[test]
fn an_edge_without_a_shared_variable_is_one_group() {
    // R(a, b), S(c, d): a cartesian product.
    let q = QueryBuilder::new()
        .atom("R", &["a", "b"])
        .atom("S", &["c", "d"])
        .build();
    let rels = vec![
        ints(
            &["a", "b"],
            &[(&[1, 2], 1.0), (&[3, 4], 0.0), (&[1, 2], 0.5)],
        ),
        ints(&["c", "d"], &[(&[5, 6], 0.25), (&[7, 8], 2.0)]),
    ];
    for parents in [[None, Some(0)], [Some(1), None]] {
        let tree = JoinTree::from_parents(&q, &parents);
        check_contract(&q, &tree, &rels, &format!("product {parents:?}"));
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels.clone()).unwrap();
        assert_eq!(
            AnyKPart::new(Arc::new(inst), SuccessorKind::Eager).count(),
            6
        );
    }
    for rank in [RankSpec::Sum, RankSpec::Lex] {
        check_engine_against_oracle(&q, &rels, rank, &format!("product, {rank}"));
    }
    // An empty side empties the product.
    let none = vec![rels[0].clone(), Relation::empty(Schema::new(["c", "d"]))];
    let tree = JoinTree::from_parents(&q, &[None, Some(0)]);
    check_contract(&q, &tree, &none, "product with an empty side");
    assert!(TdpInstance::<SumCost>::prepare(&q, &tree, none)
        .unwrap()
        .is_empty());
}

#[test]
fn a_path_with_a_detached_atom() {
    let q = QueryBuilder::new()
        .atom("R", &["a", "b"])
        .atom("S", &["b", "c"])
        .atom("U", &["e", "f"])
        .build();
    let rels = vec![
        ints(
            &["a", "b"],
            &[(&[1, 2], 1.0), (&[3, 2], 0.0), (&[4, 9], 0.0)],
        ),
        ints(
            &["b", "c"],
            &[(&[2, 5], 0.5), (&[2, 6], 0.25), (&[8, 8], 0.0)],
        ),
        ints(
            &["e", "f"],
            &[(&[0, 0], 1.0), (&[0, 1], 0.0), (&[0, 0], 0.5)],
        ),
    ];
    for parents in [
        [None, Some(0), Some(0)],
        [None, Some(0), Some(1)],
        [Some(2), Some(0), None],
    ] {
        let tree = JoinTree::from_parents(&q, &parents);
        check_contract(&q, &tree, &rels, &format!("detached {parents:?}"));
    }
    for rank in [RankSpec::Sum, RankSpec::Lex] {
        check_engine_against_oracle(&q, &rels, rank, &format!("detached atom, {rank}"));
    }
}

fn arb_rel3(max_rows: usize, domain: i64) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0..domain, 0..domain, 0..domain, 0i32..4), 0..=max_rows).prop_map(
        |rows| {
            let mut b = RelationBuilder::new(Schema::new(["p", "q", "r"]));
            for (x, y, z, w) in rows {
                b.push_ints(&[x, y, z], f64::from(w) / 2.0);
            }
            b.finish()
        },
    )
}

proptest! {
    #![proptest_config(cases_from_env(48))]

    /// Random ternary relations under every rooting of a query with a
    /// one-column key, a two-column key and a repeated variable.
    #[test]
    fn random_instances_meet_the_contract(
        r in arb_rel3(10, 3),
        s in arb_rel3(10, 3),
        t in arb_rel3(10, 3),
        root in 0usize..3,
    ) {
        let q = QueryBuilder::new()
            .atom("R", &["x", "y", "z"])
            .atom("S", &["y", "z", "u"])
            .atom("T", &["u", "v", "v"])
            .build();
        let parents = match root {
            0 => [None, Some(0), Some(1)],
            1 => [Some(1), None, Some(1)],
            _ => [Some(1), Some(2), None],
        };
        let tree = JoinTree::from_parents(&q, &parents);
        check_contract(&q, &tree, &[r, s, t], &format!("random, root {root}"));
    }
}
