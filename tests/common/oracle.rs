//! The brute-force oracle: nested-loop join + total-order sort.
//!
//! No join trees, no decompositions, no heaps — every answer is found
//! by trying row combinations atom by atom (pruned only by binding
//! consistency), and its cost is computed directly from the tuple
//! weights. Sorting by `(cost, values)` then yields a reference
//! *total order* against which every planner route and every any-k
//! variant is cross-checked — full ranked order, not just top-k.
//!
//! Tie semantics: the engine's streams order cost-ties by internal
//! enumeration order, which is deterministic but not value-sorted, so
//! the cross-check asserts (a) the exact cost sequence and (b) multiset
//! equality of the answers inside every cost-tie group.

use anyk::engine::{Appended, WriteStats};
use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;

/// One oracle answer: erased cost (same representation the engine
/// streams) plus the output tuple in `VarId` order.
pub type OracleAnswer = (Cost, Vec<Value>);

/// All answers of `q` over `rels` by brute force, ranked under `rank`,
/// sorted by `(cost, values)`.
///
/// Lexicographic costs replicate the engine's definition: weights in
/// the GYO join tree's pre-order serialization on acyclic queries, and
/// in **canonical atom order** on cyclic queries (where the engine
/// serves `Lex` from the materialized answer set).
pub fn brute_force_ranked(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    rank: RankSpec,
) -> Vec<OracleAnswer> {
    assert_eq!(q.num_atoms(), rels.len(), "one relation per atom");
    let lex_order: Option<Vec<usize>> = match rank {
        RankSpec::Lex => match gyo_reduce(q) {
            GyoResult::Acyclic(tree) => {
                Some(tree.preorder().iter().map(|&n| tree.node(n).atom).collect())
            }
            GyoResult::Cyclic(_) => Some((0..q.num_atoms()).collect()),
        },
        _ => None,
    };

    let mut out = Vec::new();
    let mut binding: Vec<Option<Value>> = vec![None; q.num_vars()];
    let mut rows: Vec<u32> = vec![0; q.num_atoms()];
    nested_loop(q, rels, 0, &mut binding, &mut rows, &mut |binding, rows| {
        let weights: Vec<Weight> = rows
            .iter()
            .enumerate()
            .map(|(a, &r)| rels[a].weight(r))
            .collect();
        let cost = combine(rank, &weights, lex_order.as_deref());
        let values: Vec<Value> = binding
            .iter()
            .map(|v| v.expect("full CQ: every variable bound"))
            .collect();
        out.push((cost, values));
    });
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out
}

/// Plain nested-loop join: extend the binding one atom at a time.
fn nested_loop(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    atom: usize,
    binding: &mut Vec<Option<Value>>,
    rows: &mut Vec<u32>,
    emit: &mut impl FnMut(&[Option<Value>], &[u32]),
) {
    if atom == q.num_atoms() {
        emit(binding, rows);
        return;
    }
    let vars = &q.atom(atom).vars;
    'rows: for r in 0..rels[atom].len() as u32 {
        let tuple = rels[atom].row(r);
        let mut bound_here = Vec::with_capacity(vars.len());
        for (pos, &v) in vars.iter().enumerate() {
            match binding[v] {
                Some(existing) if existing != tuple[pos] => {
                    for &u in &bound_here {
                        binding[u] = None;
                    }
                    continue 'rows;
                }
                Some(_) => {}
                None => {
                    binding[v] = Some(tuple[pos]);
                    bound_here.push(v);
                }
            }
        }
        rows[atom] = r;
        nested_loop(q, rels, atom + 1, binding, rows, emit);
        for &u in &bound_here {
            binding[u] = None;
        }
    }
}

/// Combine tuple weights under `rank`. For `Lex`, `lex_order` gives
/// the atom order of the serialization.
fn combine(rank: RankSpec, weights: &[Weight], lex_order: Option<&[usize]>) -> Cost {
    match rank {
        RankSpec::Sum => Cost::Scalar(Weight::new(weights.iter().map(|w| w.get()).sum())),
        RankSpec::Max => Cost::Scalar(*weights.iter().max().expect("full CQ has atoms")),
        RankSpec::Min => Cost::Scalar(*weights.iter().min().expect("full CQ has atoms")),
        RankSpec::Prod => Cost::Scalar(Weight::new(weights.iter().map(|w| w.get()).product())),
        RankSpec::Lex => Cost::Lex(
            lex_order
                .expect("lex order precomputed")
                .iter()
                .map(|&a| weights[a])
                .collect(),
        ),
    }
}

/// Assert a ranked engine stream equals the oracle's total order:
/// identical cost sequence, and multiset-identical answers within
/// every cost-tie group.
pub fn assert_matches_oracle(got: &[RankedAnswer], want: &[OracleAnswer], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: cardinality");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.cost, w.0, "{label}: cost at rank {i}");
    }
    let mut i = 0;
    while i < got.len() {
        let mut j = i;
        while j < got.len() && got[j].cost == got[i].cost {
            j += 1;
        }
        let mut gv: Vec<_> = got[i..j].iter().map(|a| a.values.clone()).collect();
        let mut wv: Vec<_> = want[i..j].iter().map(|w| w.1.clone()).collect();
        gv.sort();
        wv.sort();
        assert_eq!(gv, wv, "{label}: answers in the cost-tie group at rank {i}");
        i = j;
    }
}

/// End-to-end cross-check: the planner-routed engine's full ranked
/// order over `(q, rels, rank)` must match the brute-force oracle.
/// Returns the engine's answers so callers can pile on further checks.
pub fn check_engine_against_oracle(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    rank: RankSpec,
    label: &str,
) -> Vec<RankedAnswer> {
    let want = brute_force_ranked(q, rels, rank);
    let engine = Engine::from_query_bindings(q, rels.to_vec());
    let got: Vec<RankedAnswer> = engine
        .query(q.clone())
        .rank_by(rank)
        .plan()
        .unwrap_or_else(|e| panic!("{label}: plan failed: {e}"))
        .collect();
    assert_matches_oracle(&got, &want, label);
    got
}

/// The engine a write-path check drives: a single [`Engine`], or a
/// [`ShardedEngine`] whose delta terms flatten into the shard merge.
pub enum LiveEngine {
    Single(Engine),
    Sharded(ShardedEngine),
}

impl LiveEngine {
    fn append(&self, name: &str, batch: Relation) -> Result<Appended, EngineError> {
        match self {
            LiveEngine::Single(e) => e.append(name, batch),
            LiveEngine::Sharded(e) => e.append(name, batch),
        }
    }

    fn compact(&self, name: &str) -> Result<bool, EngineError> {
        match self {
            LiveEngine::Single(e) => e.compact(name),
            LiveEngine::Sharded(e) => e.compact(name),
        }
    }

    fn stream(&self, q: &ConjunctiveQuery, rank: RankSpec) -> Result<RankedStream, EngineError> {
        match self {
            LiveEngine::Single(e) => Ok(e.prepare(q.clone(), rank)?.stream()),
            LiveEngine::Sharded(e) => Ok(e.prepare(q, rank)?.stream()),
        }
    }

    fn write_stats(&self) -> WriteStats {
        match self {
            LiveEngine::Single(e) => e.write_stats(),
            LiveEngine::Sharded(e) => e.write_stats(),
        }
    }
}

/// Write-path cross-check on one `(q, base, appends, rank)` instance.
///
/// `live` — freshly built over `base`, its plan prepared and its first
/// stream half-read, so every write refreshes a cached plan from the
/// entry it invalidates — takes `appends` — `(atom index, batch)`
/// pairs, in order — through its `append`, and a `compact` of the
/// relation just appended to after each step listed in
/// `compact_after`. After **every** step the served stream must be
/// **byte-identical** to a fresh single-payload engine's
/// canonical-tie stream over the rows so far: a term the refresh kept
/// or extended serves what a rebuilt one does. After the last, the
/// delta-backed stream must also (a) match the brute-force oracle over
/// base ⊎ deltas and (b) be canonical by construction: the union
/// merges its leaves (delta terms, or shards × delta terms) with the
/// canonical `(cost, values, leaf)` tie-break, so the equality is
/// positional, not just tie-group-wise. Compacting every delta and
/// re-preparing must serve the identical bytes again.
///
/// A batch appended for one atom lands in every atom that reads the
/// same relation, so self-joins reconstruct correctly. Returns what
/// the refreshes of the schedule's own writes did
/// ([`WriteStats::terms_extended`] and its siblings).
pub fn check_write_path_against_oracle(
    live: LiveEngine,
    q: &ConjunctiveQuery,
    base: &[Relation],
    appends: &[(usize, Relation)],
    compact_after: &[usize],
    rank: RankSpec,
    label: &str,
) -> WriteStats {
    let fresh = |rels: &[Relation]| -> Vec<RankedAnswer> {
        Engine::from_query_bindings(q, rels.to_vec())
            .prepare(q.clone(), rank)
            .unwrap_or_else(|e| panic!("{label}: single prepare: {e}"))
            .stream()
            .canonical_ties()
            .collect()
    };
    let serve = |at: &str| {
        live.stream(q, rank)
            .unwrap_or_else(|e| panic!("{label}: {at}: prepare: {e}"))
    };
    // Ground truth: base ⊎ deltas flattened per atom, in append order —
    // both the oracle and the single-payload reference run on it.
    let mut combined = base.to_vec();
    let all = fresh(&combined);
    let warm: Vec<RankedAnswer> = serve("warm-up").take(all.len() / 2).collect();
    assert_eq!(warm.len(), all.len() / 2, "{label}: warm-up");
    for (step, (atom, batch)) in appends.iter().enumerate() {
        let name = &q.atom(*atom).relation;
        live.append(name, batch.clone())
            .unwrap_or_else(|e| panic!("{label}: append: {e}"));
        for (i, rel) in combined.iter_mut().enumerate() {
            if q.atom(i).relation == *name {
                *rel = Relation::concat(&[rel.clone(), batch.clone()]);
            }
        }
        if compact_after.contains(&step) {
            live.compact(name)
                .unwrap_or_else(|e| panic!("{label}: mid-schedule compact: {e}"));
        }
        // Every other step leaves its stream half-read, so the next
        // refresh meets a materialized term once with its sort still
        // deferred and once with the sorted artifact installed. (A
        // delta-free single engine serves route tie order; on a merged
        // stream the adapter is the identity.)
        let at = format!("after write {step}");
        let want = fresh(&combined);
        let read = if step % 2 == 0 {
            want.len()
        } else {
            want.len() / 2
        };
        let served: Vec<RankedAnswer> = serve(&at).canonical_ties().take(read).collect();
        assert_eq!(
            served,
            want[..read],
            "{label}: {at}: the refreshed plan must serve a fresh engine's bytes"
        );
    }
    let writes = live.write_stats();
    let want = brute_force_ranked(q, &combined, rank);
    let delta_backed: Vec<RankedAnswer> = serve("delta-backed").collect();
    assert_matches_oracle(&delta_backed, &want, &format!("{label}: delta-backed"));

    let canonical = fresh(&combined);
    assert_eq!(
        delta_backed, canonical,
        "{label}: delta-backed stream must be byte-identical to the \
         single-payload canonical stream"
    );

    // Compaction folds the deltas into a fresh base payload; under the
    // canonical tie-break the served bytes must not move. (A compacted
    // single engine serves route tie order again — canonicalize it; on
    // a merged stream the adapter is the identity.)
    for i in 0..q.num_atoms() {
        live.compact(&q.atom(i).relation)
            .unwrap_or_else(|e| panic!("{label}: compact: {e}"));
    }
    let compacted: Vec<RankedAnswer> = serve("post-compact").canonical_ties().collect();
    assert_eq!(
        compacted, canonical,
        "{label}: compacted stream must serve the identical bytes"
    );
    writes
}

/// The serving-path equivalences on one instance: prepared-then-stream
/// == ad-hoc plan == oracle order, and repeated prepared streams are
/// byte-identical (separate engines, so nothing is shared via a cache).
pub fn check_prepared_adhoc_oracle(q: &ConjunctiveQuery, rels: &[Relation], rank: RankSpec) {
    let want = brute_force_ranked(q, rels, rank);
    let adhoc_engine = Engine::from_query_bindings(q, rels.to_vec());
    let adhoc: Vec<RankedAnswer> = adhoc_engine
        .query(q.clone())
        .rank_by(rank)
        .plan()
        .expect("plannable")
        .collect();
    assert_matches_oracle(&adhoc, &want, &format!("{rank}: ad-hoc vs oracle"));

    let serve_engine = Engine::from_query_bindings(q, rels.to_vec());
    let prepared = serve_engine.prepare(q.clone(), rank).expect("preparable");
    let s1: Vec<RankedAnswer> = prepared.stream().collect();
    let s2: Vec<RankedAnswer> = prepared.stream().collect();
    assert_eq!(s1, adhoc, "{rank}: prepared stream == ad-hoc plan");
    assert_eq!(
        s2, adhoc,
        "{rank}: second prepared stream replays identically"
    );
}
