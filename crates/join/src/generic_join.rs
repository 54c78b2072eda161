//! Generic-Join (Ngo–Ré–Rudra, "Skew Strikes Back") — a worst-case
//! optimal join whose running time matches the AGM bound O~(n^rho*).
//!
//! The algorithm binds one *variable* at a time (not one relation at a
//! time): for each variable, the candidate values are the intersection
//! of the matching child value-lists in the tries of all atoms using
//! that variable.
//!
//! # The kernel
//!
//! Which atoms take part at which depth, and at which of their trie
//! levels, depends only on the query and the variable order, so it is
//! worked out once per run (`Plan`). The walk itself is one loop over
//! flat per-run arrays — a node handle per `(atom, level)`, a value
//! slice and a cursor per `(depth, participant)` — and each depth runs
//! a leapfrog intersection (Veldhuizen): seek one lagging cursor to the
//! current maximum, read the one value it lands on, repeat until every
//! participant agrees. With two participants that is the merge of two
//! sorted lists: walked value by value while the skips are short,
//! galloping when they are not.
//!
//! # Emission order
//!
//! The callback sequence is part of the contract: bindings arrive in
//! lexicographic order of the variable order, and for one binding the
//! per-atom row combinations arrive atom-major (the last atom's rows
//! vary fastest, each atom's rows ascending by row id). Row ids index
//! the relations as *passed in*, also for an atom whose
//! repeated-variable prefilter dropped rows. Everything materialized
//! from a join — bag relations, answer slabs — inherits its row order
//! from this sequence, which is what keeps ranked streams
//! byte-identical across index providers.

use crate::semijoin::{kept_trie, RepeatedVars};
use anyk_query::cq::{ConjunctiveQuery, VarId};
use anyk_storage::trie::{gallop, NodeHandle};
use anyk_storage::{
    BuildEachTime, IndexProvider, Relation, RelationBuilder, RowId, Schema, Trie, Value, Weight,
};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Instrumentation counters for a Generic-Join run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenericJoinStats {
    /// Values emitted across all variable levels (search-tree nodes).
    pub bindings_explored: u64,
    /// Trie seek operations performed by intersections.
    pub seeks: u64,
}

/// A solution callback: the full variable binding plus, per atom, the
/// matching row (bag semantics: called once per combination of rows).
/// Return `ControlFlow::Break(())` to stop early (Boolean queries).
pub type SolutionCallback<'a> = dyn FnMut(&[Value], &[RowId]) -> ControlFlow<()> + 'a;

/// Run Generic-Join over `rels` (parallel to atoms) in the given
/// variable order (defaults to `VarId` order if `None`). Calls `f` per
/// answer; stops early if `f` breaks.
///
/// Builds every trie privately (the paper's accounting). Plans that
/// want amortized index construction go through [`generic_join_with`]
/// and pass a shared [`IndexProvider`].
pub fn generic_join(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    var_order: Option<&[VarId]>,
    f: &mut SolutionCallback<'_>,
) -> GenericJoinStats {
    generic_join_with(q, rels, var_order, &BuildEachTime, f)
}

/// [`generic_join`] with trie construction delegated to `indexes`.
///
/// Shared catalog tries are over whole payloads, so the provider is
/// only consulted for atoms whose prefilter kept every row; an atom
/// that lost rows gets a private build over the rows it kept.
/// Provider tries may be *deeper* than the atom's distinct-variable
/// count (the catalog canonicalizes every request to a full column
/// permutation so prefix orders share one trie) — the walk binds only
/// the atom's levels and emits rows from whole subtrees below them.
pub fn generic_join_with(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    var_order: Option<&[VarId]>,
    indexes: &dyn IndexProvider,
    f: &mut SolutionCallback<'_>,
) -> GenericJoinStats {
    assert_eq!(rels.len(), q.num_atoms());
    let default_order: Vec<VarId> = (0..q.num_vars()).collect();
    let order: &[VarId] = var_order.unwrap_or(&default_order);
    assert_eq!(order.len(), q.num_vars(), "var order must cover all vars");

    let atom_levels = atom_levels(q, order);
    let atoms: Vec<Arc<Trie>> = (0..rels.len())
        .map(|i| resolve_atom(q, rels, i, &atom_levels[i], indexes))
        .collect();
    let plan = Plan::new(order, &atom_levels);
    let mut stats = GenericJoinStats::default();
    if plan.every_depth_is_constrained() {
        let _ = Walk::new(&plan, &atoms, q.num_vars()).run(&mut stats, f);
    }
    stats
}

/// Per atom: its distinct variables sorted by their rank in `order` —
/// the trie levels the walk binds, outermost first. A repeated variable
/// appears once (rows with unequal repeats are filtered out first).
pub(crate) fn atom_levels(q: &ConjunctiveQuery, order: &[VarId]) -> Vec<Vec<VarId>> {
    let mut rank = vec![usize::MAX; q.num_vars()];
    for (r, &v) in order.iter().enumerate() {
        rank[v] = r;
    }
    q.atoms()
        .iter()
        .map(|atom| {
            let mut vars: Vec<VarId> = atom.vars.clone();
            vars.sort_unstable_by_key(|&v| rank[v]);
            vars.dedup();
            vars
        })
        .collect()
}

/// The trie column positions for an atom's levels: each variable's
/// first position in the atom.
fn level_positions(q: &ConjunctiveQuery, atom: usize, levels: &[VarId]) -> Vec<usize> {
    let atom = q.atom(atom);
    levels.iter().map(|&v| atom.positions_of(v)[0]).collect()
}

/// One atom's index for a run (shared with the Leapfrog Triejoin
/// reference, which resolves its tries the same way and walks them its
/// own way): the provider's trie over the atom's relation, or — when
/// the atom repeats a variable and rows disagree on it — a private trie
/// over the rows that agree, which must not pollute a shared catalog.
pub(crate) fn resolve_atom(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    atom: usize,
    levels: &[VarId],
    indexes: &dyn IndexProvider,
) -> Arc<Trie> {
    let positions = level_positions(q, atom, levels);
    let input = &rels[atom];
    match RepeatedVars::of(q.atom(atom)).mask(input) {
        None => indexes.trie(input, &positions),
        Some(keep) => Arc::new(kept_trie(input, &positions, &keep)),
    }
}

/// One atom taking part at one depth.
#[derive(Clone, Copy)]
struct Participant {
    atom: usize,
    /// Index of this `(atom, level)` in the walk's handle array.
    slot: usize,
    /// Is this the atom's last bound level? (Its rows are emitted from
    /// below the matched child; the trie itself may be deeper.)
    last: bool,
}

/// The depth-by-depth shape of a run, fixed by the query and the
/// variable order alone.
struct Plan<'a> {
    order: &'a [VarId],
    /// All participants, depth-major; within a depth in atom order.
    participants: Vec<Participant>,
    /// `participants[depth_start[d]..depth_start[d + 1]]` take part at
    /// depth `d`.
    depth_start: Vec<usize>,
    /// Slot of each atom's level 0 (its root handle).
    root_slot: Vec<usize>,
    /// Total `(atom, level)` slots.
    slots: usize,
}

impl<'a> Plan<'a> {
    fn new(order: &'a [VarId], atom_levels: &[Vec<VarId>]) -> Self {
        let mut root_slot = Vec::with_capacity(atom_levels.len());
        let mut slots = 0;
        for levels in atom_levels {
            root_slot.push(slots);
            slots += levels.len();
        }
        let mut participants = Vec::with_capacity(slots);
        let mut depth_start = Vec::with_capacity(order.len() + 1);
        for &v in order {
            depth_start.push(participants.len());
            // An atom's levels are sorted by rank, so its cursor sits
            // exactly at the level of the next of its variables to be
            // bound: it takes part iff it mentions `v`.
            for (atom, levels) in atom_levels.iter().enumerate() {
                if let Some(level) = levels.iter().position(|&u| u == v) {
                    participants.push(Participant {
                        atom,
                        slot: root_slot[atom] + level,
                        last: level + 1 == levels.len(),
                    });
                }
            }
        }
        depth_start.push(participants.len());
        Plan {
            order,
            participants,
            depth_start,
            root_slot,
            slots,
        }
    }

    /// A variable no atom mentions has no candidate values, so the join
    /// is empty (queries from our builders always constrain every
    /// variable; hand-built ones get the empty answer, not a panic).
    fn every_depth_is_constrained(&self) -> bool {
        !self.order.is_empty() && self.depth_start.windows(2).all(|w| w[0] < w[1])
    }

    fn depth(&self, d: usize) -> std::ops::Range<usize> {
        self.depth_start[d]..self.depth_start[d + 1]
    }
}

/// The mutable state of one run: every array is sized once, up front.
struct Walk<'a> {
    plan: &'a Plan<'a>,
    atoms: &'a [Arc<Trie>],
    /// Per `(atom, level)` slot: the children span the level walks.
    handles: Vec<NodeHandle>,
    /// Per participant: the values of its slot's span, and the cursor
    /// into them (relative to the span's start).
    spans: Vec<&'a [Value]>,
    cursors: Vec<usize>,
    /// Per atom: the handle and absolute child index matched at its
    /// last level — where its rows hang.
    leaves: Vec<(NodeHandle, u32)>,
    binding: Vec<Value>,
    /// Emission scratch, per atom: the rows below its leaf, the
    /// position of the current combination in them, and that
    /// combination as input row ids.
    lists: Vec<&'a [RowId]>,
    odometer: Vec<usize>,
    rows: Vec<RowId>,
}

impl<'a> Walk<'a> {
    fn new(plan: &'a Plan<'a>, atoms: &'a [Arc<Trie>], num_vars: usize) -> Self {
        let mut handles = vec![
            NodeHandle {
                level: 0,
                start: 0,
                end: 0
            };
            plan.slots
        ];
        for (atom, index) in atoms.iter().enumerate() {
            handles[plan.root_slot[atom]] = index.root();
        }
        Walk {
            plan,
            atoms,
            handles,
            spans: vec![&[]; plan.participants.len()],
            cursors: vec![0; plan.participants.len()],
            leaves: vec![(atoms[0].root(), 0); atoms.len()],
            binding: vec![Value::Int(0); num_vars],
            lists: vec![&[]; atoms.len()],
            odometer: vec![0; atoms.len()],
            rows: vec![0; atoms.len()],
        }
    }

    /// Backtracking over depths: find the next common value at the
    /// current depth, bind it and go deeper (or emit at the bottom);
    /// when a depth runs dry, go back up and step past the value that
    /// led here.
    fn run(
        &mut self,
        stats: &mut GenericJoinStats,
        f: &mut SolutionCallback<'_>,
    ) -> ControlFlow<()> {
        let bottom = self.plan.order.len() - 1;
        let mut d = 0;
        self.open(0);
        loop {
            if self.leapfrog(d, stats) {
                stats.bindings_explored += 1;
                self.descend(d);
                if d < bottom {
                    d += 1;
                    self.open(d);
                    continue;
                }
                self.emit(f)?;
            } else if d == 0 {
                return ControlFlow::Continue(());
            } else {
                d -= 1;
            }
            // Step past the value just explored at depth `d`.
            self.cursors[self.plan.depth_start[d]] += 1;
        }
    }

    /// Point depth `d`'s participants at the start of their spans.
    fn open(&mut self, d: usize) {
        for p in self.plan.depth(d) {
            let part = self.plan.participants[p];
            self.spans[p] = self.atoms[part.atom].child_values(self.handles[part.slot]);
            self.cursors[p] = 0;
        }
    }

    /// Leapfrog intersection at depth `d`, from the current cursors:
    /// `true` with every participant's cursor on the next common value
    /// (bound into `binding`), `false` when some span is exhausted.
    ///
    /// `hi` is the largest value under any cursor and the last `agree`
    /// participants visited sit on it; each step seeks the next one —
    /// the one that has lagged longest — up to `hi` and reads where it
    /// landed. One seek and one value read per step.
    fn leapfrog(&mut self, d: usize, stats: &mut GenericJoinStats) -> bool {
        let parts = self.plan.depth(d);
        let spans = &self.spans[parts.clone()];
        let cursors = &mut self.cursors[parts];
        let found = match (spans, cursors) {
            ([a, b], [i, j]) => merge_step(a, b, i, j, &mut stats.seeks),
            (spans, cursors) => leapfrog_step(spans, cursors, &mut stats.seeks),
        };
        if let Some(v) = found {
            self.binding[self.plan.order[d]] = v;
        }
        found.is_some()
    }

    /// Every participant of depth `d` sits on the bound value: hand its
    /// children to the atom's next level, or note where its rows hang.
    fn descend(&mut self, d: usize) {
        for p in self.plan.depth(d) {
            let part = self.plan.participants[p];
            let h = self.handles[part.slot];
            // A cursor stays inside its span, whose bounds are `u32`s.
            let child = h.start + self.cursors[p] as u32;
            if part.last {
                self.leaves[part.atom] = (h, child);
            } else {
                self.handles[part.slot + 1] = self.atoms[part.atom].descend(h, child);
            }
        }
    }

    /// All variables bound: call `f` once per combination of the atoms'
    /// matching rows (bag semantics), the last atom varying fastest.
    fn emit(&mut self, f: &mut SolutionCallback<'_>) -> ControlFlow<()> {
        let Walk {
            atoms,
            leaves,
            binding,
            lists,
            odometer,
            rows,
            ..
        } = self;
        for (atom, index) in atoms.iter().enumerate() {
            let (h, child) = leaves[atom];
            // Never empty: every trie node has at least one row below.
            lists[atom] = index.rows_below(h, child);
            odometer[atom] = 0;
            rows[atom] = lists[atom][0];
        }
        loop {
            f(binding, rows)?;
            let mut atom = atoms.len();
            loop {
                if atom == 0 {
                    return ControlFlow::Continue(());
                }
                atom -= 1;
                odometer[atom] += 1;
                if odometer[atom] == lists[atom].len() {
                    odometer[atom] = 0;
                }
                rows[atom] = lists[atom][odometer[atom]];
                if odometer[atom] > 0 {
                    break;
                }
            }
        }
    }
}

/// The next value common to `k` sorted spans at or after their cursors,
/// leaving every cursor on it; `None` once a span is exhausted.
///
/// `hi` is the largest value under any cursor and the last `agree`
/// spans visited sit on it; each step seeks the next span — the one
/// that has lagged longest — up to `hi` and reads where it landed.
fn leapfrog_step(spans: &[&[Value]], cursors: &mut [usize], seeks: &mut u64) -> Option<Value> {
    let k = spans.len();
    let mut hi = *spans[0].get(cursors[0])?;
    let mut agree = 1;
    let mut j = 0;
    while agree < k {
        j = if j + 1 == k { 0 } else { j + 1 };
        cursors[j] = gallop(spans[j], cursors[j], hi);
        *seeks += 1;
        let v = *spans[j].get(cursors[j])?;
        if v == hi {
            agree += 1;
        } else {
            hi = v;
            agree = 1;
        }
    }
    Some(hi)
}

/// [`leapfrog_step`] for two spans: the merge of two sorted lists, one
/// three-way comparison per step. Short skips are walked value by value
/// — a step is a comparison and two branch-free increments, cheaper
/// than any seek — and whenever [`MERGE_WALK`] steps pass without a
/// match the lagging side gallops to the other's value instead, so
/// clustered or lopsided lists cost the logarithm of what they skip,
/// not its length.
fn merge_step(
    a: &[Value],
    b: &[Value],
    i: &mut usize,
    j: &mut usize,
    seeks: &mut u64,
) -> Option<Value> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let (mut p, mut q) = (*i, *j);
    let mut found = None;
    'merge: while p < a.len() && q < b.len() {
        for _ in 0..MERGE_WALK {
            let x = a[p];
            let order = x.cmp(&b[q]);
            if order == Equal {
                found = Some(x);
                break 'merge;
            }
            p += (order == Less) as usize;
            q += (order == Greater) as usize;
            if p == a.len() || q == b.len() {
                break 'merge;
            }
        }
        *seeks += 1;
        match a[p].cmp(&b[q]) {
            Less => p = gallop(a, p + 1, b[q]),
            Greater => q = gallop(b, q + 1, a[p]),
            Equal => {}
        }
    }
    (*i, *j) = (p, q);
    found
}

/// Values [`merge_step`] walks without a match before it gallops.
const MERGE_WALK: usize = 16;

/// The `(atom index, trie positions)` requests [`generic_join_with`]
/// will make against a shared [`IndexProvider`] for `q` under
/// `var_order` (default `VarId` order when `None`). Atoms with
/// repeated variables are omitted: whether they reach the shared
/// catalog depends on whether their prefilter drops rows, which only
/// the run itself knows. Lets a planner probe an index catalog for
/// `EXPLAIN index=cached|built` without building anything.
pub fn generic_join_trie_requests(
    q: &ConjunctiveQuery,
    var_order: Option<&[VarId]>,
) -> Vec<(usize, Vec<usize>)> {
    let default_order: Vec<VarId> = (0..q.num_vars()).collect();
    let order: &[VarId] = var_order.unwrap_or(&default_order);
    (atom_levels(q, order).iter().enumerate())
        // A repeated-variable atom may prefilter privately.
        .filter(|(i, levels)| levels.len() == q.atom(*i).vars.len())
        .map(|(i, levels)| (i, level_positions(q, i, levels)))
        .collect()
}

/// Materializing wrapper: output schema = all variables in `VarId`
/// order; weight = sum of the matched tuples' weights.
pub fn generic_join_materialize(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    var_order: Option<&[VarId]>,
) -> (Relation, GenericJoinStats) {
    generic_join_materialize_with(q, rels, var_order, &BuildEachTime)
}

/// [`generic_join_materialize`] with trie construction delegated to a
/// shared [`IndexProvider`].
pub fn generic_join_materialize_with(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    var_order: Option<&[VarId]>,
    indexes: &dyn IndexProvider,
) -> (Relation, GenericJoinStats) {
    let schema = Schema::new(q.var_names().iter().cloned());
    let mut out = RelationBuilder::new(schema);
    let stats = generic_join_with(q, rels, var_order, indexes, &mut |binding, rows| {
        let w: f64 = rows
            .iter()
            .enumerate()
            .map(|(a, &r)| rels_weight(rels, a, r))
            .sum();
        out.push(binding, Weight::new(w));
        ControlFlow::Continue(())
    });
    (out.finish(), stats)
}

#[inline]
fn rels_weight(rels: &[Relation], atom: usize, row: RowId) -> f64 {
    rels[atom].weight(row).get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::{cycle_query, path_query, triangle_query, QueryBuilder};
    use anyk_storage::RelationBuilder;

    fn edge_rel(edges: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for &(x, y) in edges {
            b.push_ints(&[x, y], 1.0);
        }
        b.finish()
    }

    #[test]
    fn triangle_small() {
        let q = triangle_query();
        let e = edge_rel(&[(1, 2), (2, 3), (3, 1), (2, 1), (1, 3)]);
        let rels = vec![e.clone(), e.clone(), e];
        let (res, stats) = generic_join_materialize(&q, &rels, None);
        // Triangles (x1,x2,x3) with edges x1->x2->x3->x1:
        // (1,2,3): 1->2,2->3,3->1 yes. (2,3,1): yes. (3,1,2): 3->1,1->2,2->3 yes.
        // (1,3,?): 1->3, 3->1? then x3=1... (1,3,1)? x3->x1: 1->1 no.
        // (2,1,3): 2->1, 1->3, 3->2? no.
        assert_eq!(res.len(), 3);
        assert!(stats.bindings_explored > 0);
    }

    #[test]
    fn matches_binary_join_on_path() {
        let q = path_query(3);
        let rels = vec![
            edge_rel(&[(1, 2), (2, 3), (5, 5)]),
            edge_rel(&[(2, 4), (3, 4), (5, 5)]),
            edge_rel(&[(4, 8), (4, 9), (5, 5)]),
        ];
        let (mut gj, _) = generic_join_materialize(&q, &rels, None);
        let (mut bj, _) = crate::binary::binary_join(&q, &rels, &[0, 1, 2]);
        gj.sort_by_positions(&[0, 1, 2, 3]);
        bj.sort_by_positions(&[0, 1, 2, 3]);
        assert_eq!(gj.len(), bj.len());
        for i in 0..gj.len() as u32 {
            assert_eq!(gj.row(i), bj.row(i));
            assert_eq!(gj.weight(i), bj.weight(i));
        }
    }

    #[test]
    fn four_cycle() {
        let q = cycle_query(4);
        let e = edge_rel(&[(1, 2), (2, 3), (3, 4), (4, 1), (2, 1), (1, 4)]);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        let (res, _) = generic_join_materialize(&q, &rels, None);
        // Cross-checked against the nested-loop oracle: 12 bindings
        // x1->x2->x3->x4->x1 over these edges (degenerate repeats like
        // (1,2,1,2) and (1,2,1,4) included — the paper's footnote 2
        // likewise keeps degenerate cycles).
        let nl = crate::nested_loop::nested_loop_join(&q, &rels);
        crate::nested_loop::assert_same_result(&res, &nl);
        assert_eq!(res.len(), 12);
    }

    #[test]
    fn early_exit_boolean() {
        let q = triangle_query();
        let e = edge_rel(&[(1, 2), (2, 3), (3, 1)]);
        let rels = vec![e.clone(), e.clone(), e];
        let mut found = 0;
        generic_join(&q, &rels, None, &mut |_, _| {
            found += 1;
            ControlFlow::Break(())
        });
        assert_eq!(found, 1);
    }

    #[test]
    fn bag_semantics_duplicates() {
        // Duplicate edge should double the matching answers.
        let q = path_query(2);
        let rels = vec![edge_rel(&[(1, 2), (1, 2)]), edge_rel(&[(2, 3)])];
        let (res, _) = generic_join_materialize(&q, &rels, None);
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn custom_var_order() {
        let q = triangle_query();
        let e = edge_rel(&[(1, 2), (2, 3), (3, 1)]);
        let rels = vec![e.clone(), e.clone(), e];
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let (res, _) = generic_join_materialize(&q, &rels, Some(&order));
            assert_eq!(res.len(), 3, "order {order:?}");
        }
    }

    #[test]
    fn shared_provider_matches_private_builds() {
        use anyk_storage::IndexCatalog;
        let q = triangle_query();
        let e = edge_rel(&[(1, 2), (2, 3), (3, 1), (2, 1), (1, 3)]);
        let rels = vec![e.clone(), e.clone(), e];
        let catalog = IndexCatalog::default();
        let (base, _) = generic_join_materialize(&q, &rels, None);
        let (shared, _) = generic_join_materialize_with(&q, &rels, None, &catalog);
        assert_eq!(base.len(), shared.len());
        for i in 0..base.len() as u32 {
            assert_eq!(base.row(i), shared.row(i));
            assert_eq!(base.weight(i), shared.weight(i));
        }
        // One payload, two distinct orders ([0,1] for the first two
        // atoms, [1,0] for the closing atom): exactly two trie builds.
        assert_eq!(catalog.stats().builds, 2);
        // Re-running the same join is all hits, zero new builds.
        generic_join_materialize_with(&q, &rels, None, &catalog);
        assert_eq!(catalog.stats().builds, 2);
    }

    #[test]
    fn shared_provider_skips_prefiltered_atoms() {
        use anyk_storage::IndexCatalog;
        // E(x,x) prefilters into a fresh payload: it must get a private
        // trie build, never a catalog entry keyed to the filtered data.
        let q = QueryBuilder::new()
            .atom("E", &["x", "x"])
            .atom("F", &["x", "y"])
            .build();
        let rels = vec![
            edge_rel(&[(1, 1), (2, 3), (4, 4)]),
            edge_rel(&[(1, 7), (4, 8), (2, 9)]),
        ];
        let catalog = IndexCatalog::default();
        let (res, _) = generic_join_materialize_with(&q, &rels, None, &catalog);
        assert_eq!(res.len(), 2);
        // Only F's trie lives in the catalog.
        assert_eq!(catalog.stats().builds, 1);
        assert_eq!(catalog.stats().entries, 1);
    }

    #[test]
    fn repeated_var_atom_reports_input_row_ids() {
        // E(x,x) drops (2,3): the trie is over rows 0 and 2 of E, and
        // the weights must come from those ids.
        let q = QueryBuilder::new()
            .atom("E", &["x", "x"])
            .atom("F", &["x", "y"])
            .build();
        let mut e = RelationBuilder::new(Schema::new(["u", "v"]));
        for (row, w) in [([1, 1], 0.5), ([2, 3], 8.0), ([4, 4], 0.25)] {
            e.push_ints(&row, w);
        }
        let rels = vec![e.finish(), edge_rel(&[(1, 7), (4, 8), (2, 9)])];
        let (res, _) = generic_join_materialize(&q, &rels, None);
        let got: Vec<(i64, f64)> = (res.iter())
            .map(|(_, row, w)| (row[0].int(), w.get()))
            .collect();
        assert_eq!(got, vec![(1, 1.5), (4, 1.25)]);
    }

    /// Every common value of the lists, by repeated steps from cursors
    /// at 0, stepping the first cursor past each match.
    fn intersect(lists: &[Vec<Value>]) -> Vec<Value> {
        let spans: Vec<&[Value]> = lists.iter().map(Vec::as_slice).collect();
        let mut cursors = vec![0; spans.len()];
        let mut seeks = 0;
        let mut out = Vec::new();
        loop {
            let found = match (&spans[..], &mut cursors[..]) {
                ([a, b], [i, j]) => merge_step(a, b, i, j, &mut seeks),
                (spans, cursors) => leapfrog_step(spans, cursors, &mut seeks),
            };
            let Some(v) = found else { return out };
            out.push(v);
            cursors[0] += 1;
        }
    }

    #[test]
    fn intersection_steps_match_a_naive_intersection() {
        let ints = |xs: &mut dyn Iterator<Item = i64>| xs.map(Value::Int).collect::<Vec<_>>();
        let cases: Vec<Vec<Vec<Value>>> = vec![
            // Dense and interleaved: walked.
            vec![ints(&mut (0..60).step_by(2)), ints(&mut (0..60).step_by(3))],
            // Disjoint clusters around one shared value: galloped.
            vec![
                ints(&mut (0..500).chain([1000]).chain(2000..2500)),
                ints(&mut (600..900).chain([1000]).chain(5000..5100)),
            ],
            // Lopsided.
            vec![ints(&mut (0..2000)), ints(&mut [7, 1999, 5000].into_iter())],
            // One side empty, and one side exhausted first.
            vec![ints(&mut (0..10)), vec![]],
            vec![ints(&mut (0..10)), ints(&mut (20..30))],
            // One, three and four lists.
            vec![ints(&mut (3..9))],
            vec![
                ints(&mut (0..90).step_by(2)),
                ints(&mut (0..90).step_by(3)),
                ints(&mut (0..90).step_by(5)),
            ],
            vec![
                ints(&mut (0..400)),
                ints(&mut (100..300).step_by(7)),
                ints(&mut [2, 107, 121, 299, 350].into_iter()),
                ints(&mut (0..400).step_by(1)),
            ],
        ];
        for lists in cases {
            let want: Vec<Value> = (lists[0].iter())
                .filter(|v| lists.iter().all(|l| l.contains(v)))
                .copied()
                .collect();
            assert_eq!(intersect(&lists), want, "{} lists", lists.len());
        }
    }

    #[test]
    fn repeated_var_atom() {
        // Self loops: E(x,x) ⋈ F(x,y).
        let q = QueryBuilder::new()
            .atom("E", &["x", "x"])
            .atom("F", &["x", "y"])
            .build();
        let rels = vec![
            edge_rel(&[(1, 1), (2, 3), (4, 4)]),
            edge_rel(&[(1, 7), (4, 8), (2, 9)]),
        ];
        let (res, _) = generic_join_materialize(&q, &rels, None);
        assert_eq!(res.len(), 2);
    }
}
