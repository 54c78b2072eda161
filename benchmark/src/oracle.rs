//! A brute-force join the engine's answers are checked against: plain
//! index-nested-loops over the atoms in query order, sharing no code
//! with the planner, the join kernels or the any-k enumerators.

use anyk_engine::{Engine, RankSpec, RankedAnswer};
use anyk_query::cq::ConjunctiveQuery;
use anyk_storage::{Catalog, Relation, RowId, Value};
use std::collections::HashMap;

/// Every answer of `q` over `rels` (one relation per atom): the output
/// tuple in `VarId` order and the matched tuples' weights in atom order.
pub fn brute_force(q: &ConjunctiveQuery, rels: &[Relation]) -> Vec<(Vec<Value>, Vec<f64>)> {
    // index[atom][column]: value -> rows
    let index: Vec<Vec<HashMap<Value, Vec<RowId>>>> = rels
        .iter()
        .map(|rel| {
            (0..rel.arity())
                .map(|col| {
                    let mut m: HashMap<Value, Vec<RowId>> = HashMap::new();
                    for (id, row, _) in rel.iter() {
                        m.entry(row[col]).or_default().push(id);
                    }
                    m
                })
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    let mut binding = vec![None; q.num_vars()];
    let mut weights = Vec::new();
    extend(q, rels, &index, 0, &mut binding, &mut weights, &mut out);
    out
}

fn extend(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    index: &[Vec<HashMap<Value, Vec<RowId>>>],
    atom: usize,
    binding: &mut Vec<Option<Value>>,
    weights: &mut Vec<f64>,
    out: &mut Vec<(Vec<Value>, Vec<f64>)>,
) {
    if atom == q.num_atoms() {
        // Every variable occurs in some atom, so all are bound here.
        out.push((binding.iter().flatten().copied().collect(), weights.clone()));
        return;
    }
    let vars = &q.atom(atom).vars;
    let rel = &rels[atom];
    let all: Vec<RowId>;
    let candidates: &[RowId] = match vars.iter().position(|&v| binding[v].is_some()) {
        Some(col) => index[atom][col]
            .get(&binding[vars[col]].expect("position() found it bound"))
            .map_or(&[], Vec::as_slice),
        None => {
            all = (0..rel.len() as RowId).collect();
            &all
        }
    };
    for &id in candidates {
        let row = rel.row(id);
        if vars
            .iter()
            .zip(row)
            .any(|(&v, &x)| binding[v].is_some_and(|b| b != x))
        {
            continue;
        }
        let fresh: Vec<usize> = vars
            .iter()
            .copied()
            .filter(|&v| binding[v].is_none())
            .collect();
        for (&v, &x) in vars.iter().zip(row) {
            binding[v] = Some(x);
        }
        // A repeated variable inside one atom must agree with itself.
        if vars.iter().zip(row).all(|(&v, &x)| binding[v] == Some(x)) {
            weights.push(rel.weight(id).get());
            extend(q, rels, index, atom + 1, binding, weights, out);
            weights.pop();
        }
        for v in fresh {
            binding[v] = None;
        }
    }
}

/// Are `answers` in non-decreasing cost order?
pub fn monotone(answers: &[RankedAnswer]) -> bool {
    answers.windows(2).all(|w| w[0].cost <= w[1].cost)
}

/// Enumerate `q` under `rank` to exhaustion through a fresh engine over
/// `catalog` and compare with the brute-force join: answer count, the
/// multiset of output tuples, rank order, and — for the scalar rankings
/// — every cost. Weights must be dyadic so sums are exact in any
/// association order.
pub fn check_against_brute_force(
    catalog: &Catalog,
    q: &ConjunctiveQuery,
    rank: RankSpec,
) -> Result<usize, String> {
    let what = format!("{q} rank by {rank}");
    let rels: Vec<Relation> = q
        .atoms()
        .iter()
        .map(|a| {
            catalog
                .get(&a.relation)
                .cloned()
                .ok_or(format!("{what}: no relation {}", a.relation))
        })
        .collect::<Result<_, _>>()?;
    let truth = brute_force(q, &rels);
    let engine = Engine::new(catalog.fork_with_fresh_indexes());
    let got: Vec<RankedAnswer> = engine
        .prepare(q.clone(), rank)
        .map_err(|e| format!("{what}: {e}"))?
        .stream()
        .collect();
    if got.len() != truth.len() {
        return Err(format!(
            "{what}: {} answers, brute force has {}",
            got.len(),
            truth.len()
        ));
    }
    if !monotone(&got) {
        return Err(format!("{what}: costs are not in rank order"));
    }
    let mut want_tuples: Vec<&Vec<Value>> = truth.iter().map(|(t, _)| t).collect();
    let mut got_tuples: Vec<&Vec<Value>> = got.iter().map(|a| &a.values).collect();
    want_tuples.sort();
    got_tuples.sort();
    if want_tuples != got_tuples {
        return Err(format!("{what}: output tuples differ from brute force"));
    }
    let scalar: Option<fn(&[f64]) -> f64> = match rank {
        RankSpec::Sum => Some(|w| w.iter().sum()),
        RankSpec::Max => Some(|w| w.iter().copied().fold(f64::MIN, f64::max)),
        // Lexicographic costs follow the join tree's serialization
        // order, which the oracle does not know; order and tuples above
        // are what it can pin.
        _ => None,
    };
    if let Some(cost_of) = scalar {
        let mut want: Vec<f64> = truth.iter().map(|(_, w)| cost_of(w)).collect();
        want.sort_by(f64::total_cmp);
        let got_costs: Vec<f64> = got.iter().filter_map(|a| a.cost.scalar()).collect();
        if want != got_costs {
            return Err(format!("{what}: ranked costs differ from brute force"));
        }
    }
    Ok(got.len())
}
