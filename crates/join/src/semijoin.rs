//! Semi-join reductions and the full reducer, by sort-merge.
//!
//! `R ⋉ S`: keep the tuples of `R` that join with at least one tuple of
//! `S`. A **full reducer** (Bernstein–Chiu 1981) runs one bottom-up and
//! one top-down sweep of semi-joins over a join tree; afterwards the
//! database is *globally consistent* (§3): every remaining tuple
//! participates in at least one query answer, which is exactly the
//! precondition Yannakakis and T-DP rely on for output-sensitive cost.
//!
//! Sorted key columns are the only access path. Per join-tree edge
//! [`Reduction::run`] builds one [`Trie`] on the child's key positions
//! and one on the parent's, and never sorts, hashes or groups again:
//!
//! * one lock-step walk of the two tries' key levels (a two-list merge
//!   for a one-column key, level by level for a composite one) yields
//!   the edge's **matched key runs** — per key both sides carry, the
//!   child rows and the parent rows carrying it — after which the
//!   tries are dropped; rows outside every run are dead at once;
//! * a semi-join is a pass over those runs that clears **keep-bits** of
//!   the filtered side; no row moves while the sweeps run;
//! * edges are sorted in the bottom-up sweep's own order, each over the
//!   rows still kept (dead rows are left out of the sort),
//!   and a side holding a single key value is applied to the other side
//!   as a selection before that side is sorted — so a selective join
//!   costs what survives it, not what went in;
//! * each relation is compacted once at the end, in input order, which
//!   leaves one monotone input-id → reduced-id map per relation;
//! * the join-key groups a consumer needs ([`Reduction::groups`]) are
//!   the runs' child rows with dropped rows skipped, and the parent-row
//!   → group map is the same runs' parent rows.
//!
//! An edge with no shared variable (a cartesian product inside a
//! disconnected query) has no key to sort on: it is one run holding
//! every row of both sides, so a sweep over it asks "is the other side
//! non-empty?" and its grouping is one group.
//!
//! # Order contract
//!
//! Reduced relations keep their rows in input order. Groups are
//! numbered in ascending key order ([`Value`]'s order, column by
//! column), a group's members ascend by reduced row id, and every
//! reduced parent row maps to the group holding exactly the child rows
//! it joins. `tests/tdp_contract.rs` pins all of it against a
//! nested-loop reference.

use anyk_query::cq::{Atom, ConjunctiveQuery};
use anyk_query::join_tree::{JoinTree, NodeId};
use anyk_storage::trie::NodeHandle;
use anyk_storage::{Relation, RowId, Trie, Value};

/// `rel`'s row count as the exclusive bound of its row ids — the one
/// checked conversion behind every id this module hands out.
///
/// # Panics
///
/// If `rel` has more rows than a [`RowId`] can address, as
/// [`Trie::build`] does; T-DP checks its inputs first and returns a
/// typed error instead.
pub fn row_bound(rel: &Relation) -> RowId {
    RowId::try_from(rel.len()).expect("a relation's rows are addressable by RowId")
}

/// Where an atom repeats a variable (`E(x, x)`): for every column, the
/// first column holding the same variable.
#[derive(Debug, Clone)]
pub struct RepeatedVars {
    first: Vec<usize>,
}

impl RepeatedVars {
    /// The repeats of `atom`.
    pub fn of(atom: &Atom) -> Self {
        let first = (atom.vars.iter())
            .map(|v| atom.vars.iter().position(|u| u == v).expect("v is in vars"))
            .collect();
        RepeatedVars { first }
    }

    /// Does `row` carry equal values wherever the atom repeats a
    /// variable? Rows that do not can match no answer.
    #[inline]
    pub fn agree(&self, row: &[Value]) -> bool {
        (self.first.iter().enumerate()).all(|(p, &p0)| row[p] == row[p0])
    }

    /// One keep-bit per row of `rel`, or `None` when every row passes.
    pub fn mask(&self, rel: &Relation) -> Option<Vec<bool>> {
        if self.first.iter().enumerate().all(|(p, &p0)| p == p0) {
            return None; // no variable repeats
        }
        let keep: Vec<bool> = (0..row_bound(rel))
            .map(|r| self.agree(rel.row(r)))
            .collect();
        keep.contains(&false).then_some(keep)
    }
}

/// Key positions of the join between a node and its parent, as
/// `(child_positions, parent_positions)`.
pub fn join_key_positions(
    q: &ConjunctiveQuery,
    tree: &JoinTree,
    node: usize,
) -> (Vec<usize>, Vec<usize>) {
    let n = tree.node(node);
    let parent = n.parent.expect("root has no parent join");
    let child_atom = q.atom(n.atom);
    let parent_atom = q.atom(tree.node(parent).atom);
    let first = |atom: &Atom, v, side| {
        let at = atom.vars.iter().position(|&u| u == v);
        at.unwrap_or_else(|| panic!("join var must occur in {side} atom"))
    };
    (n.join_vars.iter())
        .map(|&v| {
            (
                first(child_atom, v, "child"),
                first(parent_atom, v, "parent"),
            )
        })
        .unzip()
}

/// One side of a join-tree edge while the edge is being matched: the
/// relation, its key positions and its keep-bits so far.
struct Side<'a> {
    rel: &'a Relation,
    pos: &'a [usize],
    keep: &'a mut [bool],
}

/// A trie on `positions` over the rows of `rel` whose keep-bit is set:
/// a sort costs the rows that are left, not the rows that were there,
/// and its rows are `rel`'s ids.
pub(crate) fn kept_trie(rel: &Relation, positions: &[usize], keep: &[bool]) -> Trie {
    let kept: Vec<RowId> = (0..row_bound(rel)).filter(|&r| keep[r as usize]).collect();
    Trie::build_rows(rel, positions, &kept)
}

/// Sort the kept rows of `side` on its key positions.
fn key_trie(side: &Side<'_>) -> Trie {
    if side.keep.contains(&false) {
        kept_trie(side.rel, side.pos, side.keep)
    } else {
        Trie::build(side.rel, side.pos)
    }
}

/// The matched key runs of one join-tree edge: for every join key both
/// sides carry, in ascending key order, the child rows and the parent
/// rows carrying it (each ascending by row id). Rows outside every run
/// join nothing across this edge.
struct EdgeRuns {
    /// Child rows, run after run.
    child_rows: Vec<RowId>,
    /// Parent rows, run after run.
    parent_rows: Vec<RowId>,
    /// Run `i` is `child_rows[ends[i - 1].0..ends[i].0]` with
    /// `parent_rows[ends[i - 1].1..ends[i].1]`.
    ends: Vec<(u32, u32)>,
}

impl EdgeRuns {
    /// Sort both sides on their key positions — one [`Trie`] each —
    /// keep what one lock-step walk of the two tries matches, and clear
    /// the keep-bit of every row outside the runs. An edge with no
    /// shared variable has no key to sort on: it is one run of every
    /// row of both sides.
    ///
    /// The side with fewer kept rows is sorted first. If it holds a
    /// single first-key value it is a selection on the other side,
    /// which is applied (one equality per row) before that side is
    /// sorted: one row joined with a large relation sorts the rows that
    /// match, not the relation.
    fn build<'a>(mut child: Side<'a>, mut parent: Side<'a>) -> Self {
        assert_eq!(child.pos.len(), parent.pos.len());
        let kept = |side: &Side<'_>| side.keep.iter().filter(|&&k| k).count();
        // Sorted first, so the run vectors are not resident while the
        // builds hold their sort records.
        let tries = (!child.pos.is_empty()).then(|| {
            let child_first = kept(&child) <= kept(&parent);
            let (first, second) = if child_first {
                (&child, &mut parent)
            } else {
                (&parent, &mut child)
            };
            let first_trie = key_trie(first);
            if let [only] = first_trie.child_values(first_trie.root()) {
                let column = second.pos[0];
                for (r, keep) in (0..).zip(second.keep.iter_mut()) {
                    *keep = *keep && second.rel.row(r)[column] == *only;
                }
            }
            let second_trie = key_trie(second);
            if child_first {
                (first_trie, second_trie)
            } else {
                (second_trie, first_trie)
            }
        });
        let mut runs = EdgeRuns {
            child_rows: Vec::with_capacity(kept(&child)),
            parent_rows: Vec::with_capacity(kept(&parent)),
            ends: Vec::new(),
        };
        match tries {
            Some((c, p)) => merge_matches(&c, c.root(), &p, p.root(), &mut |crows, prows| {
                runs.push(crows.iter().copied(), prows.iter().copied());
            }),
            None => runs.push(0..row_bound(child.rel), 0..row_bound(parent.rel)),
        }
        keep_only(&runs.child_rows, child.keep);
        keep_only(&runs.parent_rows, parent.keep);
        runs
    }

    /// The runs of an edge whose parent side is not known yet: the
    /// child's kept rows split by key, in key order, with no parent rows
    /// — a key trie's leaves, or one run of every row on an edge with no
    /// shared variable.
    fn keyed(child: Side<'_>) -> Self {
        let mut runs = EdgeRuns {
            child_rows: Vec::with_capacity(child.keep.iter().filter(|&&k| k).count()),
            parent_rows: Vec::new(),
            ends: Vec::new(),
        };
        if child.pos.is_empty() {
            runs.push(0..row_bound(child.rel), std::iter::empty());
        } else {
            let trie = key_trie(&child);
            leaves(&trie, trie.root(), &mut |rows| {
                runs.push(rows.iter().copied(), std::iter::empty())
            });
        }
        runs
    }

    fn push(&mut self, child: impl Iterator<Item = RowId>, parent: impl Iterator<Item = RowId>) {
        self.child_rows.extend(child);
        self.parent_rows.extend(parent);
        // Each side holds at most its relation's rows.
        let end = |rows: &Vec<RowId>| RowId::try_from(rows.len()).expect("bounded by row_bound");
        self.ends
            .push((end(&self.child_rows), end(&self.parent_rows)));
    }

    /// The runs as `(child rows, parent rows)`, in key order.
    fn iter(&self) -> impl Iterator<Item = (&[RowId], &[RowId])> + '_ {
        let mut from = (0, 0);
        self.ends.iter().map(move |&(c, p)| {
            let to = (c as usize, p as usize);
            let run = (
                &self.child_rows[from.0..to.0],
                &self.parent_rows[from.1..to.1],
            );
            from = to;
            run
        })
    }

    /// One semi-join: clear the keep-bit of every `target` row whose
    /// run has no kept `source` row. `from_child` says which side of
    /// the edge is the source.
    fn sweep(&self, from_child: bool, source: &[bool], target: &mut [bool]) {
        for (child, parent) in self.iter() {
            let (src, tgt) = if from_child {
                (child, parent)
            } else {
                (parent, child)
            };
            if !src.iter().any(|&r| source[r as usize]) {
                for &r in tgt {
                    target[r as usize] = false;
                }
            }
        }
    }
}

/// Clear the keep-bit of every row that is not among `matched`.
fn keep_only(matched: &[RowId], keep: &mut [bool]) {
    let mut hit = vec![false; keep.len()];
    for &r in matched {
        hit[r as usize] = true;
    }
    for (k, h) in keep.iter_mut().zip(hit) {
        *k &= h;
    }
}

/// Lock-step walk of two equally deep key tries below `ch` and `ph`: a
/// two-list merge of the level's sorted values that descends where both
/// sides hold the value and, at the last level, reports the two leaves'
/// rows. Keys only one side holds are stepped over.
fn merge_matches(
    c: &Trie,
    ch: NodeHandle,
    p: &Trie,
    ph: NodeHandle,
    f: &mut impl FnMut(&[RowId], &[RowId]),
) {
    let last = ch.level as usize + 1 == c.depth();
    let (cv, pv) = (c.child_values(ch), p.child_values(ph));
    let (mut i, mut j) = (ch.start, ph.start);
    while i < ch.end && j < ph.end {
        let (cval, pval) = (cv[(i - ch.start) as usize], pv[(j - ph.start) as usize]);
        match cval.cmp(&pval) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if last {
                    f(c.leaf_rows(ch, i), p.leaf_rows(ph, j));
                } else {
                    merge_matches(c, c.descend(ch, i), p, p.descend(ph, j), f);
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Every leaf of `t` below `h`, in key order: the rows carrying one
/// full key each.
fn leaves(t: &Trie, h: NodeHandle, f: &mut impl FnMut(&[RowId])) {
    let last = h.level as usize + 1 == t.depth();
    for i in h.start..h.end {
        if last {
            f(t.leaf_rows(h, i));
        } else {
            leaves(t, t.descend(h, i), f);
        }
    }
}

/// Marks a dropped row in an input-id → reduced-id map. Never a real
/// id: ids are below their relation's row count, which fits a `RowId`.
const DROPPED: RowId = RowId::MAX;

/// Compact `rel` to the rows whose keep-bit is set, in input order, and
/// return the input-id → reduced-id map ([`DROPPED`] for dropped rows)
/// with the number of rows kept.
fn compact(rel: &mut Relation, keep: &[bool]) -> (Vec<RowId>, RowId) {
    let mut kept: RowId = 0;
    let new_ids = (keep.iter())
        .map(|&k| {
            let id = if k { kept } else { DROPPED };
            kept += RowId::from(k);
            id
        })
        .collect();
    rel.retain(|r| keep[r as usize]);
    (new_ids, kept)
}

/// One non-root node's join-key groups over the reduced relations (see
/// the module's order contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinGroups {
    /// Group `g`'s members are `rows[offsets[g]..offsets[g + 1]]`.
    pub offsets: Vec<u32>,
    /// Reduced child row ids, group after group.
    pub rows: Vec<RowId>,
    /// Reduced parent row id → the group it joins.
    pub of_parent_row: Vec<u32>,
}

/// One join-tree edge of a [`Reduction`].
struct Edge {
    runs: EdgeRuns,
    child_atom: usize,
    parent_atom: usize,
}

/// A finished full-reducer run: the relations it was given are reduced,
/// and each edge's matched key runs are kept so the join-key groups can
/// be read off them without sorting, hashing or probing again.
pub struct Reduction {
    /// node -> its edge to the parent (`None` at the root).
    edges: Vec<Option<Edge>>,
    /// atom -> input row id -> reduced row id.
    new_ids: Vec<Vec<RowId>>,
    /// atom -> rows kept.
    kept: Vec<RowId>,
}

impl Reduction {
    /// Run a full reducer over `rels` (parallel to the query's atoms)
    /// using `tree`: bottom-up semi-joins (children filter parents),
    /// then top-down (parents filter children), after dropping rows
    /// that disagree on an atom's repeated variables.
    ///
    /// After this, for every node, each remaining tuple extends to at
    /// least one full query answer, and `rels` hold the survivors in
    /// input order.
    ///
    /// # Panics
    ///
    /// If a relation has more rows than a [`RowId`] can address.
    pub fn run(q: &ConjunctiveQuery, tree: &JoinTree, rels: &mut [Relation]) -> Self {
        let (order, edges, mut keep) = Self::up(q, tree, rels, false);
        // Top-down, in pre-order: each node is filtered by its parent.
        for &node in &order {
            let Some(edge) = &edges[node] else { continue };
            let mut child_keep = std::mem::take(&mut keep[edge.child_atom]);
            edge.runs
                .sweep(false, &keep[edge.parent_atom], &mut child_keep);
            keep[edge.child_atom] = child_keep;
        }
        Self::finish(edges, rels, &keep)
    }

    /// The bottom-up half of [`run`](Self::run), for a tree whose root
    /// relation is not known yet: every node below the root is reduced
    /// against its own subtree (children filter parents; a child also
    /// loses the rows whose key its parent relation lacks), and the
    /// root's relation is neither read, nor changed, nor lets anything
    /// filter by it. The edges into the root are not matched: their groups
    /// are the child's rows split by join key, in ascending key order,
    /// and they map no parent row. A row kept here extends to a full
    /// answer of its subtree, so a root row that finds its key among
    /// every child's groups extends to a full answer, and one that does
    /// not is dropped by whoever adds it (T-DP's open root).
    ///
    /// # Panics
    ///
    /// If a relation has more rows than a [`RowId`] can address.
    pub fn bottom_up(q: &ConjunctiveQuery, tree: &JoinTree, rels: &mut [Relation]) -> Self {
        let (_, edges, keep) = Self::up(q, tree, rels, true);
        Self::finish(edges, rels, &keep)
    }

    /// The bottom-up sweep, in reverse pre-order: sort and match each
    /// node's edge over what is still kept on both sides, then let the
    /// node filter its parent. A node's subtree is done before the
    /// node's own edge is sorted, so every edge sorts the fewest rows
    /// it can. With `open_root`, the root keeps no bits at all and an
    /// edge into it is only sorted into key runs ([`EdgeRuns::keyed`]).
    /// Returns the pre-order, the edges and the keep-bits.
    fn up(
        q: &ConjunctiveQuery,
        tree: &JoinTree,
        rels: &[Relation],
        open_root: bool,
    ) -> (Vec<NodeId>, Vec<Option<Edge>>, Vec<Vec<bool>>) {
        assert_eq!(rels.len(), q.num_atoms());
        let root = tree.node(tree.root()).atom;
        let mut keep: Vec<Vec<bool>> = (rels.iter().enumerate())
            .map(|(atom, rel)| {
                if open_root && atom == root {
                    return Vec::new();
                }
                let repeats = RepeatedVars::of(q.atom(atom)).mask(rel);
                repeats.unwrap_or_else(|| vec![true; rel.len()])
            })
            .collect();
        let order = tree.preorder();
        let mut edges: Vec<Option<Edge>> = (0..tree.len()).map(|_| None).collect();
        for &node in order.iter().rev() {
            let Some(parent) = tree.node(node).parent else {
                continue;
            };
            let (child_atom, parent_atom) = (tree.node(node).atom, tree.node(parent).atom);
            let (cpos, ppos) = join_key_positions(q, tree, node);
            // A node and its parent are distinct atoms (even for
            // self-joins), so lending one bit vector out is safe.
            let mut child_keep = std::mem::take(&mut keep[child_atom]);
            let child = Side {
                rel: &rels[child_atom],
                pos: &cpos,
                keep: &mut child_keep,
            };
            let runs = if open_root && parent_atom == root {
                EdgeRuns::keyed(child)
            } else {
                let runs = EdgeRuns::build(
                    child,
                    Side {
                        rel: &rels[parent_atom],
                        pos: &ppos,
                        keep: &mut keep[parent_atom],
                    },
                );
                runs.sweep(true, &child_keep, &mut keep[parent_atom]);
                runs
            };
            keep[child_atom] = child_keep;
            edges[node] = Some(Edge {
                runs,
                child_atom,
                parent_atom,
            });
        }
        (order, edges, keep)
    }

    /// Compact every relation to its kept rows (an atom without keep-bits
    /// — an open root — is left as it is and addresses no row).
    fn finish(edges: Vec<Option<Edge>>, rels: &mut [Relation], keep: &[Vec<bool>]) -> Self {
        let (new_ids, kept) = (rels.iter_mut().zip(keep))
            .map(|(rel, keep)| {
                if keep.is_empty() {
                    (Vec::new(), 0)
                } else {
                    compact(rel, keep)
                }
            })
            .unzip();
        Reduction {
            edges,
            new_ids,
            kept,
        }
    }

    /// The join-key groups of non-root `node` under its parent, over
    /// the reduced relations: the edge's runs with dropped rows (and
    /// runs left without rows) skipped.
    ///
    /// # Panics
    ///
    /// If `node` is the root.
    pub fn groups(&self, node: NodeId) -> JoinGroups {
        let edge = self.edges[node].as_ref().expect("the root has no groups");
        let child_ids = &self.new_ids[edge.child_atom];
        let parent_ids = &self.new_ids[edge.parent_atom];
        let mut offsets: Vec<u32> = Vec::with_capacity(edge.runs.ends.len() + 1);
        offsets.push(0);
        let mut rows: Vec<RowId> = Vec::with_capacity(self.kept[edge.child_atom] as usize);
        let mut of_parent_row: Vec<u32> = vec![0; self.kept[edge.parent_atom] as usize];
        let (mut group, mut end) = (0u32, 0u32);
        for (child, parent) in edge.runs.iter() {
            let before = end;
            for &r in child {
                let id = child_ids[r as usize];
                if id != DROPPED {
                    rows.push(id);
                    end += 1;
                }
            }
            if end == before {
                continue;
            }
            offsets.push(end);
            for &r in parent {
                let id = parent_ids[r as usize];
                if id != DROPPED {
                    of_parent_row[id as usize] = group;
                }
            }
            group += 1;
        }
        JoinGroups {
            offsets,
            rows,
            of_parent_row,
        }
    }
}

/// Run a full reducer over `rels` — [`Reduction::run`] for callers that
/// only want the reduced relations.
pub fn full_reducer(q: &ConjunctiveQuery, tree: &JoinTree, rels: &mut [Relation]) {
    Reduction::run(q, tree, rels);
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::{path_query, QueryBuilder};
    use anyk_query::gyo::{gyo_reduce, GyoResult};
    use anyk_storage::{RelationBuilder, Schema};

    fn edge_rel(name_cols: [&str; 2], edges: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(name_cols));
        for &(x, y) in edges {
            b.push_ints(&[x, y], 0.0);
        }
        b.finish()
    }

    fn column(rel: &Relation, col: usize) -> Vec<i64> {
        rel.iter().map(|(_, row, _)| row[col].int()).collect()
    }

    #[test]
    fn full_reducer_removes_dangling() {
        // Path R1(x0,x1) ⋈ R2(x1,x2) ⋈ R3(x2,x3):
        // R1 has a dangling edge (9,9); R3 has (8,8).
        let q = path_query(3);
        let tree = match gyo_reduce(&q) {
            GyoResult::Acyclic(t) => t,
            _ => unreachable!(),
        };
        let mut rels = vec![
            edge_rel(["a", "b"], &[(1, 2), (9, 9)]),
            edge_rel(["b", "c"], &[(2, 3)]),
            edge_rel(["c", "d"], &[(3, 4), (8, 8)]),
        ];
        full_reducer(&q, &tree, &mut rels);
        assert_eq!(rels[0].len(), 1);
        assert_eq!(rels[1].len(), 1);
        assert_eq!(rels[2].len(), 1);
        assert_eq!(rels[0].row(0)[0].int(), 1);
    }

    #[test]
    fn full_reducer_global_consistency() {
        // After reduction every tuple must participate in some answer:
        // brute-force check on a random-ish instance.
        let q = path_query(2);
        let tree = match gyo_reduce(&q) {
            GyoResult::Acyclic(t) => t,
            _ => unreachable!(),
        };
        let mut rels = vec![
            edge_rel(["a", "b"], &[(1, 2), (1, 3), (4, 5)]),
            edge_rel(["b", "c"], &[(2, 7), (3, 8), (6, 9)]),
        ];
        full_reducer(&q, &tree, &mut rels);
        // (4,5) and (6,9) must be gone.
        assert_eq!(column(&rels[0], 1), vec![2, 3]);
        assert_eq!(column(&rels[1], 0), vec![2, 3]);
    }

    #[test]
    fn groups_are_key_runs_over_reduced_ids() {
        // Root R1 (atom 0) with child R2 on x1. Input row 0 of R2
        // dangles, so reduced ids are the input ids minus one.
        let q = path_query(2);
        let tree = JoinTree::from_parents(&q, &[None, Some(0)]);
        let mut rels = vec![
            edge_rel(["a", "b"], &[(1, 5), (2, 3), (3, 5), (4, 8)]),
            edge_rel(["b", "c"], &[(9, 0), (5, 1), (3, 2), (5, 3), (3, 4)]),
        ];
        let reduction = Reduction::run(&q, &tree, &mut rels);
        assert_eq!(column(&rels[0], 0), vec![1, 2, 3]);
        assert_eq!(column(&rels[1], 1), vec![1, 2, 3, 4]);
        let g = reduction.groups(1);
        // Key 3 before key 5; members ascend by reduced row id.
        assert_eq!(g.offsets, vec![0, 2, 4]);
        assert_eq!(g.rows, vec![1, 3, 0, 2]);
        assert_eq!(g.of_parent_row, vec![1, 0, 1]);
    }

    #[test]
    fn repeated_vars_prefiltered() {
        let q = QueryBuilder::new().atom("E", &["x", "x"]).build();
        let repeats = RepeatedVars::of(q.atom(0));
        let r = edge_rel(["u", "v"], &[(1, 1), (1, 2), (3, 3)]);
        assert_eq!(repeats.mask(&r), Some(vec![true, false, true]));
        // Nothing to drop, nothing to allocate.
        assert_eq!(repeats.mask(&edge_rel(["u", "v"], &[(1, 1)])), None);
        assert_eq!(RepeatedVars::of(path_query(2).atom(0)).mask(&r), None);
        // The reducer starts from the same bits.
        let tree = JoinTree::from_parents(&q, &[None]);
        let mut rels = vec![r];
        full_reducer(&q, &tree, &mut rels);
        assert_eq!(column(&rels[0], 0), vec![1, 3]);
    }

    #[test]
    fn bottom_up_reduces_below_the_root_and_leaves_the_root_alone() {
        // Root R1 over R2 over R3: R3 filters R2, R2's keys filter R3,
        // the root filters nothing, and R2's groups under it are its
        // key runs on x1.
        let q = path_query(3);
        let tree = JoinTree::from_parents(&q, &[None, Some(0), Some(1)]);
        let mut rels = vec![
            edge_rel(["a", "b"], &[(9, 9)]),
            edge_rel(["b", "c"], &[(5, 1), (3, 2), (5, 3), (4, 9)]),
            edge_rel(["c", "d"], &[(1, 0), (2, 0), (3, 0), (7, 0)]),
        ];
        let reduction = Reduction::bottom_up(&q, &tree, &mut rels);
        assert_eq!(column(&rels[0], 0), vec![9], "the root is not read");
        assert_eq!(column(&rels[1], 1), vec![1, 2, 3]);
        assert_eq!(column(&rels[2], 0), vec![1, 2, 3], "no R2 row carries 7");
        let g = reduction.groups(1);
        assert_eq!((g.offsets, g.rows), (vec![0, 1, 3], vec![1, 0, 2]));
        assert!(g.of_parent_row.is_empty(), "no root row is mapped");
        let g = reduction.groups(2);
        assert_eq!(g.of_parent_row, vec![0, 1, 2]);
    }
}
