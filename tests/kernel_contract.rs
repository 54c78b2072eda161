//! The worst-case-optimal kernel's contract, checked against naive
//! constructions:
//!
//! * `generic_join_with` calls back with exactly the nested-loop join's
//!   answers — bindings **and** per-atom row ids — in lexicographic
//!   order of the variable order, the per-atom row combinations of one
//!   binding atom-major (last atom fastest, rows ascending);
//! * `Trie::build` equals a per-level reference on mixed-type columns;
//! * the bag relations `ghd_plan_provider` materializes equal a
//!   nested-loop construction row for row — values, weights and order,
//!   which they inherit from the callback order above.

mod common;

use anyk::join::decomposed::ghd_plan_provider;
use anyk::join::generic_join::generic_join_with;
use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;
use anyk::query::decompose::{fhw_exact, fhw_greedy, Decomposition};
use anyk::query::hypergraph::{iter_vars, Hypergraph};
use anyk::storage::trie::NodeHandle;
use anyk::storage::{BuildEachTime, IndexCatalog, IndexProvider, RowId, Trie};
use common::gen::cases_from_env;
use proptest::prelude::*;
use std::ops::ControlFlow;

type Call = (Vec<Value>, Vec<RowId>);

/// Every consistent combination of one row per atom, atom 0 outermost
/// and row ids ascending: `(binding in VarId order, row per atom)`.
fn nested_loop(q: &ConjunctiveQuery, rels: &[Relation]) -> Vec<Call> {
    fn rec(
        q: &ConjunctiveQuery,
        rels: &[Relation],
        atom: usize,
        binding: &mut Vec<Option<Value>>,
        rows: &mut Vec<RowId>,
        out: &mut Vec<Call>,
    ) {
        if atom == rels.len() {
            let binding = binding.iter().map(|v| v.expect("bound")).collect();
            out.push((binding, rows.clone()));
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
    rec(
        q,
        rels,
        0,
        &mut vec![None; q.num_vars()],
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// The callback sequence the kernel owes: the nested-loop answers,
/// stably sorted by their binding read in `order` (the nested loop
/// already lists one binding's row combinations atom-major).
fn expected_calls(q: &ConjunctiveQuery, rels: &[Relation], order: &[usize]) -> Vec<Call> {
    let mut calls = nested_loop(q, rels);
    calls.sort_by_cached_key(|(binding, _)| order.iter().map(|&v| binding[v]).collect::<Vec<_>>());
    calls
}

/// What `generic_join_with` actually calls back with, stopping after
/// `limit` calls.
fn observed_calls(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    order: Option<&[usize]>,
    indexes: &dyn IndexProvider,
    limit: usize,
) -> Vec<Call> {
    let mut calls = Vec::new();
    generic_join_with(q, rels, order, indexes, &mut |binding, rows| {
        calls.push((binding.to_vec(), rows.to_vec()));
        if calls.len() == limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    calls
}

const VAR_NAMES: [&str; 4] = ["a", "b", "c", "d"];

/// 2–3 atoms of arity 2–3 over up to four variables — variables repeat
/// inside an atom about as often as not — and per atom up to eight rows
/// over a domain of three values, so duplicates, inconsistent repeats
/// and empty relations all occur.
fn arb_instance() -> impl Strategy<Value = (ConjunctiveQuery, Vec<Relation>)> {
    let atom = (2usize..=3).prop_flat_map(|arity| {
        (
            prop::collection::vec(0usize..VAR_NAMES.len(), arity..=arity),
            prop::collection::vec(prop::collection::vec(0i64..3, arity..=arity), 0..=8),
        )
    });
    prop::collection::vec(atom, 2..=3).prop_map(|atoms| {
        let mut qb = QueryBuilder::new();
        let mut rels = Vec::new();
        for (i, (vars, rows)) in atoms.into_iter().enumerate() {
            let names: Vec<&str> = vars.iter().map(|&v| VAR_NAMES[v]).collect();
            qb = qb.atom(format!("R{i}"), &names);
            let cols: Vec<String> = (0..vars.len()).map(|c| format!("c{c}")).collect();
            let mut b = RelationBuilder::new(Schema::new(cols));
            for row in rows {
                b.push_ints(&row, 1.0);
            }
            rels.push(b.finish());
        }
        (qb.build(), rels)
    })
}

/// The variables ordered by `keys` (ties by id): a random permutation.
fn order_from(keys: &[u32], num_vars: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..num_vars).collect();
    order.sort_by_key(|&v| keys[v]);
    order
}

proptest! {
    #![proptest_config(cases_from_env(48))]

    #[test]
    fn callback_sequence_is_the_sorted_nested_loop(
        instance in arb_instance(),
        keys in prop::collection::vec(0u32..100, VAR_NAMES.len()..=VAR_NAMES.len()),
        explicit in 0usize..3,
        stop in 0usize..1000,
    ) {
        let (q, rels) = instance;
        // One case in three runs under the default VarId order.
        let default_order: Vec<usize> = (0..q.num_vars()).collect();
        let order = if explicit == 0 { default_order } else { order_from(&keys, q.num_vars()) };
        let passed = (explicit != 0).then_some(order.as_slice());
        let want = expected_calls(&q, &rels, &order);
        // Private exact-depth tries, and the catalog's canonical ones: a
        // repeated-variable atom whose rows all agree keeps its shared
        // payload and gets a trie deeper than its level count.
        let catalog = IndexCatalog::default();
        for indexes in [&BuildEachTime as &dyn IndexProvider, &catalog] {
            let got = observed_calls(&q, &rels, passed, indexes, usize::MAX);
            prop_assert_eq!(&got, &want);
        }
        // A `Break` after j answers sees exactly the first j.
        if !want.is_empty() {
            let j = 1 + stop % want.len();
            let got = observed_calls(&q, &rels, passed, &catalog, j);
            prop_assert_eq!(&got[..], &want[..j]);
        }
    }
}

#[test]
fn empty_relation_and_deeper_catalog_trie() {
    let e = |rows: &[[i64; 2]]| {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for row in rows {
            b.push_ints(row, 1.0);
        }
        b.finish()
    };
    // E(x,x) ⋈ F(x,y), every E row a self-loop: nothing is filtered, so
    // the catalog serves E's one-level request from a two-level trie.
    let q = QueryBuilder::new()
        .atom("E", &["x", "x"])
        .atom("F", &["x", "y"])
        .build();
    let rels = vec![
        e(&[[2, 2], [1, 1], [2, 2], [4, 4]]),
        e(&[[2, 7], [1, 9], [2, 7], [3, 3]]),
    ];
    let catalog = IndexCatalog::default();
    let got = observed_calls(&q, &rels, None, &catalog, usize::MAX);
    assert_eq!(got, expected_calls(&q, &rels, &[0, 1]));
    assert_eq!(got.len(), 5, "x=1 once, x=2 as 2 x 2 row combinations");
    assert_eq!(got[1].1, vec![0, 0]);
    assert_eq!(got[2].1, vec![0, 2]);
    assert_eq!(got[3].1, vec![2, 0]);
    // A filtered atom reports ids of the relation as passed in.
    let rels = vec![e(&[[5, 6], [1, 1], [2, 3], [2, 2]]), rels[1].clone()];
    let got = observed_calls(&q, &rels, None, &catalog, usize::MAX);
    assert_eq!(got, expected_calls(&q, &rels, &[0, 1]));
    assert_eq!(got[0].1, vec![1, 1], "E's row 1, not filtered-copy row 0");
    // An empty relation anywhere: no callbacks.
    for empty_at in 0..2 {
        let mut rels = rels.clone();
        rels[empty_at] = e(&[]);
        assert!(observed_calls(&q, &rels, None, &BuildEachTime, usize::MAX).is_empty());
    }
}

/// Mixed-type cell: small pools per type so duplicates are common, with
/// negative numbers and both float zeros.
fn arb_cell() -> impl Strategy<Value = Value> {
    (0usize..3, 0i64..4).prop_map(|(kind, x)| match kind {
        0 => Value::Int(x - 2),
        1 => Value::float([-1.5, -0.0, 0.0, 2.25][x as usize]),
        _ => Value::Sym(x as u32),
    })
}

/// `ids` (sorted by the trie's key, then id) grouped by their value at
/// `col`, in order.
fn groups_by(rel: &Relation, ids: &[RowId], col: usize) -> Vec<(Value, Vec<RowId>)> {
    let mut groups: Vec<(Value, Vec<RowId>)> = Vec::new();
    for &id in ids {
        let v = rel.row(id)[col];
        match groups.last_mut() {
            Some((last, members)) if *last == v => members.push(id),
            _ => groups.push((v, vec![id])),
        }
    }
    groups
}

/// The trie node whose children `h` spans must hold exactly `ids`.
fn check_node(trie: &Trie, h: NodeHandle, rel: &Relation, ids: &[RowId], level: usize) {
    let positions = trie.positions();
    let groups = groups_by(rel, ids, positions[level]);
    let values: Vec<Value> = groups.iter().map(|(v, _)| *v).collect();
    assert_eq!(trie.child_values(h), &values[..], "level {level} values");
    assert_eq!(trie.rows_under(h), ids, "level {level} rows");
    for ((v, members), i) in groups.iter().zip(h.start..) {
        assert_eq!(trie.find(h, *v), Some(i));
        assert_eq!(trie.rows_below(h, i), &members[..]);
        if level + 1 < positions.len() {
            check_node(trie, trie.descend(h, i), rel, members, level + 1);
        } else {
            assert_eq!(trie.leaf_rows(h, i), &members[..]);
        }
    }
}

proptest! {
    #![proptest_config(cases_from_env(48))]

    #[test]
    fn trie_build_equals_the_per_level_reference(
        rows in prop::collection::vec(prop::collection::vec(arb_cell(), 3..=3), 0..=24),
        keys in prop::collection::vec(0u32..100, 3..=3),
        depth in 1usize..=3,
    ) {
        let rel = Relation::from_unweighted_rows(Schema::new(["p", "q", "r"]), &rows);
        let positions = &order_from(&keys, 3)[..depth];
        let trie = Trie::build(&rel, positions);
        prop_assert_eq!(trie.positions(), positions);
        // Reference row order: by the key columns, ties by row id.
        let mut ids: Vec<RowId> = rel.iter().map(|(id, _, _)| id).collect();
        ids.sort_by_key(|&id| (rel.key(id, positions), id));
        check_node(&trie, trie.root(), &rel, &ids, 0);
    }
}

/// One bag of `decomp`, built the slow way: nested-loop the cover
/// atoms, order the bindings by the cover's variables in order of first
/// mention, project to the bag's variables, keep first occurrences,
/// then look every assigned atom up by scanning its relation (lightest
/// matching row; no match drops the bag row).
fn reference_bag(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    decomp: &Decomposition,
    bag: usize,
    identity: Weight,
    merge: impl Fn(Weight, Weight) -> Weight,
) -> Vec<(Vec<Value>, Weight)> {
    let cover = &decomp.bags[bag].cover;
    let mut cover_vars: Vec<usize> = Vec::new();
    let mut qb = QueryBuilder::new();
    for &e in cover {
        let names: Vec<&str> = q.atom(e).vars.iter().map(|&v| q.var_name(v)).collect();
        qb = qb.atom(q.atom(e).relation.clone(), &names);
        for &v in &q.atom(e).vars {
            if !cover_vars.contains(&v) {
                cover_vars.push(v);
            }
        }
    }
    let sub_q = qb.build();
    let sub_rels: Vec<Relation> = cover.iter().map(|&e| rels[e].clone()).collect();
    let mut bindings: Vec<Vec<Value>> = nested_loop(&sub_q, &sub_rels)
        .into_iter()
        .map(|(binding, _)| binding)
        .collect();
    bindings.sort();
    let bag_vars: Vec<usize> = iter_vars(decomp.bags[bag].vars).collect();
    let mut distinct: Vec<Vec<Value>> = Vec::new();
    for binding in bindings {
        let row: Vec<Value> = bag_vars
            .iter()
            .map(|v| binding[cover_vars.iter().position(|c| c == v).expect("covered")])
            .collect();
        if !distinct.contains(&row) {
            distinct.push(row);
        }
    }
    let assigned: Vec<usize> = (0..q.num_atoms())
        .filter(|&e| decomp.edge_home[e] == bag)
        .collect();
    let value_of = |row: &[Value], v: usize| row[bag_vars.iter().position(|&b| b == v).unwrap()];
    distinct
        .into_iter()
        .filter_map(|row| {
            let mut w = identity;
            for &e in &assigned {
                let lightest = (rels[e].iter())
                    .filter(|(_, tuple, _)| {
                        (q.atom(e).vars.iter().zip(*tuple)).all(|(&v, t)| value_of(&row, v) == *t)
                    })
                    .map(|(_, _, weight)| weight)
                    .min()?;
                w = merge(w, lightest);
            }
            Some((row, w))
        })
        .collect()
}

fn check_bags(q: &ConjunctiveQuery, rels: &[Relation], decomp: &Decomposition) {
    let merge = |a: Weight, b: Weight| Weight::new(a.get() + b.get());
    let catalog = IndexCatalog::default();
    for indexes in [&BuildEachTime as &dyn IndexProvider, &catalog] {
        let plan = ghd_plan_provider(q, rels, decomp, Weight::ZERO, merge, indexes);
        assert_eq!(plan.relations.len(), decomp.bags.len());
        for (bag, got) in plan.relations.iter().enumerate() {
            let want = reference_bag(q, rels, decomp, bag, Weight::ZERO, merge);
            let got: Vec<(Vec<Value>, Weight)> =
                got.iter().map(|(_, row, w)| (row.to_vec(), w)).collect();
            assert_eq!(got, want, "bag {bag} of {:?}", decomp.kind);
        }
    }
}

#[test]
fn a_repeated_variable_atom_is_weighed_by_its_lightest_input_row() {
    // A triangle with a loop atom L(x, x) whose rows disagree, and
    // whose agreeing rows repeat under different weights. The rows
    // that disagree come first, so a row id of the filtered copy names
    // another input row: (1, 1) must weigh 0.5 — input row 4 — and
    // (2, 2) must weigh 1.0, input row 3.
    let q = QueryBuilder::new()
        .atom("R", &["x", "y"])
        .atom("S", &["y", "z"])
        .atom("T", &["z", "x"])
        .atom("L", &["x", "x"])
        .build();
    let e = common::gen::edge_rel(&[
        (1, 2, 0.25),
        (2, 3, 0.5),
        (3, 1, 0.125),
        (2, 1, 1.0),
        (1, 3, 2.0),
        (3, 2, 0.75),
    ]);
    let loops = [
        (1, 2, 0.0625),
        (3, 1, 0.0),
        (1, 1, 4.0),
        (2, 2, 1.0),
        (1, 1, 0.5),
        (2, 2, 8.0),
    ];
    let rels = vec![e.clone(), e.clone(), e, common::gen::edge_rel(&loops)];
    let h = Hypergraph::of_query(&q);
    for decomp in [fhw_exact(&h), fhw_greedy(&h)] {
        check_bags(&q, &rels, &decomp);
    }
    // End to end: the decomposed route keeps one answer per binding,
    // at the lightest row — the brute-force answers over the input
    // without the heavier duplicates.
    let mut lightest = rels.clone();
    lightest[3] = common::gen::edge_rel(&[loops[0], loops[1], loops[3], loops[4]]);
    for rank in [RankSpec::Sum, RankSpec::Max] {
        let engine = Engine::from_query_bindings(&q, rels.clone());
        let stream = engine.query(q.clone()).rank_by(rank).plan().unwrap();
        assert_eq!(stream.plan().route.label(), "decomposed");
        let got: Vec<_> = stream.collect();
        assert!(got.len() >= 2, "answers through x = 1 and through x = 2");
        let want = common::oracle::brute_force_ranked(&q, &lightest, rank);
        common::oracle::assert_matches_oracle(&got, &want, &format!("loop atom, {rank:?}"));
    }
}

#[test]
fn bag_relations_equal_the_nested_loop_construction() {
    // Duplicate edges with different weights: the projection repeats
    // rows, and the weight lookup must take the lightest.
    let mut edges: Vec<(i64, i64, f64)> = (0..40)
        .map(|i| (i * 7 % 6, i * 5 % 6, 0.25 * (i % 9) as f64))
        .collect();
    edges.extend([(1, 2, 0.125), (1, 2, 4.0), (3, 3, 0.5)]);
    let e = common::gen::edge_rel(&edges);
    // The 5- and 6-cycle's exact decompositions cover most bags with
    // two non-adjacent edges and drop a middle (or the leading) cover
    // variable; the greedy ones differ in shape.
    for l in [5usize, 6] {
        let q = cycle_query(l);
        let rels: Vec<Relation> = (0..l).map(|_| e.clone()).collect();
        let h = Hypergraph::of_query(&q);
        for decomp in [fhw_exact(&h), fhw_greedy(&h)] {
            check_bags(&q, &rels, &decomp);
        }
    }
    // A bag that keeps a prefix of its cover's variables: R(a,b,c)
    // covers bag {a,b}; c is projected away and rows repeat adjacently.
    let q = QueryBuilder::new()
        .atom("R", &["a", "b", "c"])
        .atom("S", &["a", "b"])
        .build();
    let mut r = RelationBuilder::new(Schema::new(["a", "b", "c"]));
    for (i, row) in [
        [1, 2, 3],
        [1, 2, 4],
        [0, 5, 1],
        [1, 2, 3],
        [0, 5, 9],
        [2, 2, 2],
    ]
    .iter()
    .enumerate()
    {
        r.push_ints(row, i as f64);
    }
    let s = common::gen::edge_rel(&[(1, 2, 0.5), (0, 5, 0.25), (1, 2, 0.125), (7, 7, 1.0)]);
    let rels = vec![r.finish(), s];
    let h = Hypergraph::of_query(&q);
    let mut decomp = fhw_exact(&h);
    check_bags(&q, &rels, &decomp);
    // The same query through a hand-made two-bag decomposition whose
    // second bag {a,b} is covered by R alone.
    let (a, b, c) = (
        q.var("a").unwrap(),
        q.var("b").unwrap(),
        q.var("c").unwrap(),
    );
    decomp.bags.truncate(1);
    decomp.bags[0].vars = 1 << a | 1 << b | 1 << c;
    decomp.bags[0].cover = vec![0];
    decomp.bags[0].parent = None;
    let mut second = decomp.bags[0].clone();
    second.vars = 1 << a | 1 << b;
    second.parent = Some(0);
    decomp.bags.push(second);
    decomp.edge_home = vec![0, 1];
    assert!(decomp.is_valid(&h));
    check_bags(&q, &rels, &decomp);
}
