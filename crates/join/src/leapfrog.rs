//! Leapfrog Triejoin (Veldhuizen, ICDT 2014) — the other famous
//! worst-case optimal join (§3 cites it alongside NPRR/Generic-Join).
//!
//! Where our [`crate::generic_join`](mod@crate::generic_join) is a recursion that intersects
//! child value *spans*, LFTJ is the classic *iterator* formulation: each
//! atom exposes a trie iterator with `open / up / next / seek`, and each
//! variable level runs a **leapfrog join** — the round-robin galloping
//! intersection of the participating iterators. Both are worst-case
//! optimal; having two independent implementations lets the test suite
//! cross-check them against each other (and both against nested loops).

use crate::generic_join::{atom_levels, resolve_atom, SolutionCallback};
use anyk_query::cq::{ConjunctiveQuery, VarId};
use anyk_storage::trie::NodeHandle;
use anyk_storage::{
    BuildEachTime, IndexProvider, Relation, RelationBuilder, RowId, Schema, Trie, Value, Weight,
};
use std::ops::ControlFlow;
use std::sync::Arc;

/// A cursor walking one trie level-by-level (the "trie iterator" of the
/// LFTJ paper): a stack of `(children handle, position)` frames.
struct TrieCursor<'a> {
    trie: &'a Trie,
    /// One frame per opened level: the children span + current index.
    frames: Vec<(NodeHandle, u32)>,
}

impl<'a> TrieCursor<'a> {
    fn new(trie: &'a Trie) -> Self {
        TrieCursor {
            trie,
            frames: Vec::with_capacity(trie.depth()),
        }
    }

    /// Descend into the current position's children (or the root).
    fn open(&mut self) {
        let h = match self.frames.last() {
            None => self.trie.root(),
            Some(&(h, i)) => self.trie.descend(h, i),
        };
        self.frames.push((h, h.start));
    }

    /// Ascend one level.
    fn up(&mut self) {
        self.frames.pop();
    }

    /// True iff the current level's span is exhausted.
    fn at_end(&self) -> bool {
        let &(h, i) = self.frames.last().expect("cursor opened");
        i >= h.end
    }

    /// Current key at this level.
    fn key(&self) -> Value {
        let &(h, i) = self.frames.last().expect("cursor opened");
        self.trie.value_at(h, i)
    }

    /// Advance to the next key at this level.
    fn advance(&mut self) {
        let (_, i) = self.frames.last_mut().expect("cursor opened");
        *i += 1;
    }

    /// Seek to the first key >= `v` at this level.
    fn seek(&mut self, v: Value) {
        let &(h, i) = self.frames.last().expect("cursor opened");
        let pos = self.trie.seek(h, i, v);
        self.frames.last_mut().unwrap().1 = pos;
    }

    /// Rows in the subtree below the current position (valid at the
    /// atom's last level: a leaf row list when the trie ends there,
    /// every row below when a canonical shared trie is deeper).
    fn rows(&self) -> &'a [RowId] {
        let &(h, i) = self.frames.last().expect("cursor opened");
        self.trie.rows_below(h, i)
    }
}

/// The leapfrog join at one variable level: round-robin galloping
/// intersection of `cursors` (indices into the cursor arena). Returns
/// the next common key, advancing past `current` if `advance_first`.
fn leapfrog_next(
    cursors: &mut [TrieCursor<'_>],
    members: &[usize],
    advance_first: bool,
) -> Option<Value> {
    debug_assert!(!members.is_empty());
    if advance_first {
        cursors[members[0]].advance();
    }
    if members.iter().any(|&c| cursors[c].at_end()) {
        return None;
    }
    // Round-robin: repeatedly seek the smallest cursor up to the
    // largest key until all agree.
    let mut max_key = members
        .iter()
        .map(|&c| cursors[c].key())
        .max()
        .expect("non-empty");
    let mut idx = 0usize;
    loop {
        let c = members[idx % members.len()];
        let k = cursors[c].key();
        if k == max_key {
            // All cursors between the last max-setter and here agree;
            // check whether the full ring agrees.
            if members.iter().all(|&m| cursors[m].key() == max_key) {
                return Some(max_key);
            }
        }
        if k < max_key {
            cursors[c].seek(max_key);
            if cursors[c].at_end() {
                return None;
            }
            let nk = cursors[c].key();
            if nk > max_key {
                max_key = nk;
            }
        }
        idx += 1;
    }
}

/// Run Leapfrog Triejoin; identical contract to
/// [`crate::generic_join::generic_join`] (bag semantics, early exit via
/// `ControlFlow::Break`).
pub fn leapfrog_triejoin(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    var_order: Option<&[VarId]>,
    f: &mut SolutionCallback<'_>,
) {
    leapfrog_triejoin_with(q, rels, var_order, &BuildEachTime, f)
}

/// [`leapfrog_triejoin`] with trie construction delegated to `indexes`
/// (same payload-sharing rule as
/// [`crate::generic_join::generic_join_with`]).
pub fn leapfrog_triejoin_with(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    var_order: Option<&[VarId]>,
    indexes: &dyn IndexProvider,
    f: &mut SolutionCallback<'_>,
) {
    assert_eq!(rels.len(), q.num_atoms());
    let default_order: Vec<VarId> = (0..q.num_vars()).collect();
    let order: &[VarId] = var_order.unwrap_or(&default_order);
    assert_eq!(order.len(), q.num_vars());

    // Per atom: trie in global-order-sorted levels (over the rows a
    // repeated-variable prefilter kept, when it dropped any).
    let atom_levels = atom_levels(q, order);
    let atoms: Vec<Arc<Trie>> = (0..rels.len())
        .map(|i| resolve_atom(q, rels, i, &atom_levels[i], indexes))
        .collect();
    if atoms.iter().any(|a| a.root().is_empty()) {
        return;
    }
    let mut cursors: Vec<TrieCursor<'_>> = atoms.iter().map(|a| TrieCursor::new(a)).collect();

    // Participants per depth: atoms using that depth's variable. Since
    // each atom's trie levels are sorted by global rank, an atom's
    // cursor is always positioned exactly at the level of the next of
    // its variables to be bound.
    let participants: Vec<Vec<usize>> = order
        .iter()
        .map(|&v| {
            (0..cursors.len())
                .filter(|&a| atom_levels[a].contains(&v))
                .collect()
        })
        .collect();

    let mut binding: Vec<Value> = vec![Value::Int(0); q.num_vars()];
    let mut rows_per_atom: Vec<RowId> = vec![0; rels.len()];

    // Iterative backtracking over depths.
    let m = order.len();
    let mut depth = 0usize;
    let mut needs_open = true;
    'outer: loop {
        if depth == m {
            // Emit cross products of leaf rows.
            let flow = emit(&cursors, 0, &binding, &mut rows_per_atom, f);
            if flow.is_break() {
                return;
            }
            depth -= 1;
            needs_open = false;
            continue;
        }
        let parts = &participants[depth];
        let key = if needs_open {
            for &a in parts {
                cursors[a].open();
            }
            leapfrog_next(&mut cursors, parts, false)
        } else {
            leapfrog_next(&mut cursors, parts, true)
        };
        match key {
            Some(v) => {
                binding[order[depth]] = v;
                depth += 1;
                needs_open = true;
            }
            None => {
                for &a in parts {
                    cursors[a].up();
                }
                if depth == 0 {
                    break 'outer;
                }
                depth -= 1;
                needs_open = false;
            }
        }
    }
}

/// Emit the cross product of leaf rows over atoms (bag semantics), as
/// row ids of the input relations.
fn emit(
    cursors: &[TrieCursor<'_>],
    atom: usize,
    binding: &[Value],
    rows_per_atom: &mut Vec<RowId>,
    f: &mut SolutionCallback<'_>,
) -> ControlFlow<()> {
    if atom == cursors.len() {
        return f(binding, rows_per_atom);
    }
    for &r in cursors[atom].rows() {
        rows_per_atom[atom] = r;
        emit(cursors, atom + 1, binding, rows_per_atom, f)?;
    }
    ControlFlow::Continue(())
}

/// Materializing wrapper (same output contract as
/// [`crate::generic_join::generic_join_materialize`]).
pub fn leapfrog_materialize(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    var_order: Option<&[VarId]>,
) -> Relation {
    leapfrog_materialize_with(q, rels, var_order, &BuildEachTime)
}

/// [`leapfrog_materialize`] with trie construction delegated to a
/// shared [`IndexProvider`].
pub fn leapfrog_materialize_with(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    var_order: Option<&[VarId]>,
    indexes: &dyn IndexProvider,
) -> Relation {
    let schema = Schema::new(q.var_names().iter().cloned());
    let mut out = RelationBuilder::new(schema);
    leapfrog_triejoin_with(q, rels, var_order, indexes, &mut |binding, rows| {
        let w: f64 = rows
            .iter()
            .enumerate()
            .map(|(a, &r)| rels_weight(rels, a, r))
            .sum();
        out.push(binding, Weight::new(w));
        ControlFlow::Continue(())
    });
    out.finish()
}

#[inline]
fn rels_weight(rels: &[Relation], atom: usize, row: RowId) -> f64 {
    rels[atom].weight(row).get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic_join::generic_join_materialize;
    use crate::nested_loop::assert_same_result;
    use anyk_query::cq::{cycle_query, path_query, star_query, triangle_query, QueryBuilder};

    fn edge_rel(rows: &[(i64, i64, f64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for &(x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    fn check(q: &ConjunctiveQuery, rels: &[Relation]) {
        let lftj = leapfrog_materialize(q, rels, None);
        let (gj, _) = generic_join_materialize(q, rels, None);
        assert_same_result(&lftj, &gj);
    }

    #[test]
    fn triangle_matches_generic_join() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (2, 1, 2.0),
            (1, 3, 0.125),
            (1, 1, 4.0),
        ]);
        check(&triangle_query(), &[e.clone(), e.clone(), e]);
    }

    #[test]
    fn four_cycle_matches() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 4, 0.25),
            (4, 1, 2.0),
            (2, 1, 0.75),
        ]);
        check(&cycle_query(4), &[e.clone(), e.clone(), e.clone(), e]);
    }

    #[test]
    fn path_and_star_match() {
        let r1 = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (5, 5, 0.125)]);
        let r2 = edge_rel(&[(2, 4, 0.25), (3, 4, 2.0), (5, 5, 0.0625)]);
        let r3 = edge_rel(&[(4, 8, 1.5), (4, 9, 0.75), (5, 5, 3.0)]);
        check(&path_query(3), &[r1.clone(), r2.clone(), r3.clone()]);
        check(&star_query(3), &[r1, r2, r3]);
    }

    #[test]
    fn early_exit() {
        let e = edge_rel(&[(1, 2, 0.0), (2, 3, 0.0), (3, 1, 0.0)]);
        let rels = [e.clone(), e.clone(), e];
        let mut count = 0;
        leapfrog_triejoin(&triangle_query(), &rels, None, &mut |_, _| {
            count += 1;
            ControlFlow::Break(())
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn empty_relation() {
        let e = edge_rel(&[]);
        let rels = [e.clone(), e.clone(), e];
        let mut count = 0;
        leapfrog_triejoin(&triangle_query(), &rels, None, &mut |_, _| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 0);
    }

    #[test]
    fn custom_var_orders_agree() {
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (3, 1, 0.25), (3, 2, 0.125)]);
        let rels = [e.clone(), e.clone(), e];
        let q = triangle_query();
        for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let got = leapfrog_materialize(&q, &rels, Some(&order));
            let (want, _) = generic_join_materialize(&q, &rels, None);
            assert_same_result(&got, &want);
        }
    }

    #[test]
    fn repeated_vars() {
        let q = QueryBuilder::new()
            .atom("E", &["x", "x"])
            .atom("F", &["x", "y"])
            .build();
        let rels = [
            edge_rel(&[(1, 1, 0.5), (2, 3, 1.0), (4, 4, 0.25)]),
            edge_rel(&[(1, 7, 2.0), (4, 8, 0.125), (2, 9, 0.0625)]),
        ];
        check(&q, &rels);
    }

    #[test]
    fn shared_provider_matches_private_builds() {
        use anyk_storage::IndexCatalog;
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (2, 1, 2.0),
            (1, 3, 0.125),
        ]);
        let rels = [e.clone(), e.clone(), e];
        let q = triangle_query();
        let catalog = IndexCatalog::default();
        let base = leapfrog_materialize(&q, &rels, None);
        let shared = leapfrog_materialize_with(&q, &rels, None, &catalog);
        assert_eq!(base.len(), shared.len());
        for i in 0..base.len() as u32 {
            assert_eq!(base.row(i), shared.row(i));
            assert_eq!(base.weight(i), shared.weight(i));
        }
        // Same two canonical orders as Generic-Join: [0,1] and [1,0].
        assert_eq!(catalog.stats().builds, 2);
    }

    #[test]
    fn duplicates_bag_semantics() {
        let q = path_query(2);
        let rels = [
            edge_rel(&[(1, 2, 0.5), (1, 2, 0.25)]),
            edge_rel(&[(2, 3, 1.0)]),
        ];
        check(&q, &rels);
    }
}
