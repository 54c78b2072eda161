//! The worst-case-optimal kernel's contract, checked against naive
//! constructions:
//!
//! * `generic_join_with` calls back with exactly the nested-loop join's
//!   answers — bindings **and** per-atom row ids — in lexicographic
//!   order of the variable order, the per-atom row combinations of one
//!   binding atom-major (last atom fastest, rows ascending);
//! * `Trie::build` equals a per-level reference — on inputs whose rows
//!   pack into `u64` sort records, on inputs whose rows do not, and on
//!   the seam — and its two builds equal each other field for field;
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

/// What one column of a trie-build instance holds. A build packs its
/// rows into `u64` records when every key column has one type and the
/// columns' key spans and the row count fit 64 bits together; the
/// kinds below land on both sides of that, and on it.
#[derive(Debug, Clone, Copy)]
enum Column {
    /// Ints spanning exactly `bits` bits around zero (rows 0 and 1 hold
    /// the two ends): 0 bits is a constant column, 2 a pool of four.
    Window { bits: u32 },
    /// Symbols from a pool of four.
    Syms,
    /// `i64::MIN` and `i64::MAX` in rows 0 and 1, then those and 0: a
    /// span of 64 bits, which fits beside nothing.
    Extremes,
    /// Ints, floats (negative numbers, both zeros) and symbols from
    /// small pools, an int in row 0 and a symbol in row 1.
    Mixed,
}

impl Column {
    fn cell(self, row: usize, x: u64) -> Value {
        match self {
            Column::Window { bits: 0 } => Value::Int(7),
            Column::Window { bits } => {
                let span = u64::MAX >> (64 - bits);
                let offset = [0, span].get(row).copied().unwrap_or(x & span);
                Value::Int((-1i64 << (bits - 1)).wrapping_add(offset as i64))
            }
            Column::Syms => Value::Sym((x % 4) as u32),
            Column::Extremes => {
                Value::Int([i64::MIN, i64::MAX, 0][[0, 1].get(row).map_or(x % 3, |&r| r) as usize])
            }
            Column::Mixed => match [0, 2].get(row).map_or(x % 3, |&k| k) {
                0 => Value::Int((x >> 8) as i64 % 4 - 2),
                1 => Value::float([-1.5, -0.0, 0.0, 2.25][(x >> 8) as usize % 4]),
                _ => Value::Sym((x >> 8) as u32 % 4),
            },
        }
    }
}

/// Which build an instance is made for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fit {
    /// Records of at most 63 bits.
    Packed,
    /// Records of 62 to 67 bits: either side of the 64 a record has.
    Seam,
    /// A key column that is mixed, or 64 bits wide, or two that are
    /// more than 64 together.
    PerLevel,
}

/// A three-column relation and the trie positions (1 to 3 of its
/// columns, in any order) of a build made for `fit`. Row counts are 0,
/// 1, a few, either side of the 160 at which the packed build goes
/// from a comparison sort to counting passes, and a few hundred.
fn arb_build(fit: Fit) -> impl Strategy<Value = (Relation, Vec<usize>)> {
    (
        (0usize..5, 0usize..1000, 1usize..=3),
        prop::collection::vec(0u32..100, 3..=3),
        prop::collection::vec((0usize..4, 0u32..=18), 3..=3),
        (0usize..3, 0u32..6, 1u64..u64::MAX),
    )
        .prop_map(
            move |((size, n, depth), keys, draws, (culprit, over, seed))| {
                let sizes = [0, 1, 2 + n % 23, 150 + n % 21, 171 + n % 230];
                // Only 2 rows or more can fail to fit.
                let n = sizes[if fit == Fit::Packed {
                    size
                } else {
                    size.max(2)
                }];
                let row_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
                let depth = if fit == Fit::Packed {
                    depth
                } else {
                    depth.max(2)
                };
                let positions = order_from(&keys, 3)[..depth].to_vec();
                let mut columns = [Column::Syms; 3];
                for (column, &(kind, bits)) in columns.iter_mut().zip(&draws) {
                    *column = match kind {
                        0 => Column::Syms,
                        1 => Column::Window { bits: bits % 3 },
                        _ => Column::Window { bits },
                    };
                }
                match fit {
                    Fit::Packed => {}
                    Fit::Seam => {
                        // The key columns' bits add up to 62..=67 less the row's.
                        let mut left = 62 + over - row_bits;
                        for (i, &p) in positions.iter().enumerate() {
                            let bits = if i + 1 < depth { 4 + draws[p].1 } else { left };
                            columns[p] = Column::Window { bits };
                            left -= bits;
                        }
                    }
                    Fit::PerLevel => match culprit {
                        0 => columns[positions[0]] = Column::Extremes,
                        1 => columns[positions[0]] = Column::Mixed,
                        _ => {
                            for &p in &positions[..2] {
                                columns[p] = Column::Window { bits: 33 + over }
                            }
                        }
                    },
                }
                let mut x = seed;
                let rows: Vec<Vec<Value>> = (0..n)
                    .map(|row| {
                        let cell = |column: &Column| {
                            // xorshift64
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            column.cell(row, x)
                        };
                        columns.iter().map(cell).collect()
                    })
                    .collect();
                let rel = Relation::from_unweighted_rows(Schema::new(["p", "q", "r"]), &rows);
                (rel, positions)
            },
        )
}

/// The `(tag, key)` storage orders values by, re-derived here: ints
/// before floats before symbols, each as an unsigned key.
fn order_key(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64 ^ 1 << 63),
        Value::Float(f) => {
            let bits = f.get().to_bits();
            (
                1,
                if bits >> 63 == 0 {
                    bits | 1 << 63
                } else {
                    !bits
                },
            )
        }
        Value::Sym(s) => (2, s as u64),
    }
}

/// Must the rows of `rel`, keyed on `positions`, pack into `u64` sort
/// records? Every key column of one type, and the bits of their key
/// spans plus the bits of the last row index at most 64.
fn records_fit(rel: &Relation, positions: &[usize]) -> bool {
    let bits_of = |span: u64| u64::BITS - span.leading_zeros();
    let mut bits = bits_of(rel.len().saturating_sub(1) as u64);
    for &p in positions {
        let keys: Vec<(u8, u64)> = rel.iter().map(|(_, row, _)| order_key(row[p])).collect();
        let (Some(lo), Some(hi)) = (keys.iter().min(), keys.iter().max()) else {
            continue;
        };
        if lo.0 != hi.0 {
            return false;
        }
        bits += bits_of(hi.1 - lo.1);
    }
    bits <= u64::BITS
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

/// `Trie::build`, and `Trie::build_rows` over the rows whose bit of
/// `kept` is set, against the per-level reference.
fn check_against_reference(rel: &Relation, positions: &[usize], kept: u64) {
    let all: Vec<RowId> = rel.iter().map(|(id, _, _)| id).collect();
    let some: Vec<RowId> = (all.iter().copied())
        .filter(|id| kept >> (id % 64) & 1 == 1)
        .collect();
    for (trie, mut ids) in [
        (Trie::build(rel, positions), all),
        (Trie::build_rows(rel, positions, &some), some.clone()),
    ] {
        assert_eq!(trie.positions(), positions);
        // Reference row order: by the key columns, ties by row id.
        ids.sort_by_key(|&id| (rel.key(id, positions), id));
        check_node(&trie, trie.root(), rel, &ids, 0);
    }
}

/// The packed build and the per-level build of one input, field for
/// field (`Trie`'s equality is its four fields'), and the packed one
/// there exactly when the records fit.
fn check_both_builds(rel: &Relation, positions: &[usize]) {
    let per_level = Trie::build_per_level(rel, positions);
    assert_eq!(Trie::build(rel, positions), per_level);
    let packed = Trie::build_packed(rel, positions);
    assert_eq!(packed.is_some(), records_fit(rel, positions));
    if let Some(packed) = packed {
        assert_eq!(packed, per_level);
    }
}

proptest! {
    #![proptest_config(cases_from_env(48))]

    #[test]
    fn trie_build_equals_the_per_level_reference(
        packed in arb_build(Fit::Packed),
        seam in arb_build(Fit::Seam),
        per_level in arb_build(Fit::PerLevel),
        kept in 0u64..u64::MAX,
    ) {
        for (rel, positions) in [packed, seam, per_level] {
            check_against_reference(&rel, &positions, kept);
        }
    }

    #[test]
    fn packed_and_per_level_builds_are_equal_field_for_field(
        packed in arb_build(Fit::Packed),
        seam in arb_build(Fit::Seam),
        per_level in arb_build(Fit::PerLevel),
    ) {
        // One instance per build path in every case, and one on the seam.
        prop_assert!(records_fit(&packed.0, &packed.1));
        prop_assert!(!records_fit(&per_level.0, &per_level.1));
        for (rel, positions) in [packed, seam, per_level] {
            check_both_builds(&rel, &positions);
        }
    }
}

#[test]
fn records_of_exactly_64_bits_pack_and_of_65_do_not() {
    let build = |columns: [Column; 3], n: usize, positions: &[usize]| {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|row| {
                columns
                    .iter()
                    .map(|c| c.cell(row, 5 * row as u64))
                    .collect()
            })
            .collect();
        let rel = Relation::from_unweighted_rows(Schema::new(["p", "q", "r"]), &rows);
        check_both_builds(&rel, positions);
        check_against_reference(&rel, positions, 0b1011_0110);
        Trie::build_packed(&rel, positions).is_some()
    };
    let window = |bits| Column::Window { bits };
    // 5 rows take 3 bits.
    assert!(build([window(30), window(31), window(40)], 5, &[1, 0]));
    assert!(!build([window(31), window(31), window(40)], 5, &[1, 0]));
    assert!(build([window(20), window(21), window(20)], 5, &[2, 0, 1]));
    assert!(!build([window(20), window(21), window(21)], 5, &[2, 0, 1]));
    // One level: 2 rows take 1 bit, and a constant column none.
    assert!(build([window(63), window(40), window(0)], 2, &[0]));
    assert!(build([window(63), window(40), window(0)], 2, &[2, 0]));
    assert!(!build([window(63), window(1), window(0)], 2, &[0, 1]));
    assert!(!build([Column::Extremes, window(0), window(0)], 2, &[0]));
    // No rows and one row fit whatever the columns hold.
    assert!(build(
        [Column::Extremes, Column::Mixed, window(40)],
        0,
        &[1, 0, 2]
    ));
    assert!(build(
        [Column::Extremes, Column::Mixed, window(40)],
        1,
        &[1, 0, 2]
    ));
    // Duplicates only, on both sides of the sort switch.
    for n in [2, 159, 160, 400] {
        assert!(build([window(0), window(0), Column::Syms], n, &[0, 1]));
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
