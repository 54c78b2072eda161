//! T-DP: tree-based dynamic programming over join trees — the shared
//! preprocessing phase of every any-k algorithm (Part 3 of the paper,
//! following the companion VLDB 2020 paper).
//!
//! Given an acyclic full CQ, a join tree, and weighted relations:
//!
//! 1. **Full reducer** — establish global consistency so every tuple
//!    participates in ≥ 1 answer (dangling tuples would break both the
//!    DP and the constant-delay completion argument). Sort-merge: one
//!    key trie per side of every tree edge, see
//!    [`anyk_join::semijoin`].
//! 2. **Serialization** — nodes in pre-order; each subtree occupies a
//!    contiguous slot range `[j, end(j))`, which is what makes O(1)
//!    deviation costs possible without cost subtraction.
//! 3. **Grouping** — for each non-root node, tuples are grouped by join
//!    key with the parent; a parent tuple points to exactly one group
//!    per child. The groups are the matched key runs the reducer's
//!    merge already found ([`Reduction::groups`]): nothing is sorted,
//!    hashed or probed a second time.
//! 4. **Bottom-up costs** — `subcost(t) = w(t) ⊗ best(g₁) ⊗ … ⊗
//!    best(g_d)` over `t`'s child groups, combined in serialization
//!    order (supports non-commutative rankings like lexicographic).
//!
//! An answer is one tuple per slot, consistent with the group structure;
//! its cost is the ⊗ of tuple weights in slot order. The top-1 answer
//! follows best-pointers from the root; ranked enumeration on top of
//! this structure is [`crate::part`] / [`crate::rec`].
//!
//! The instance also owns the **output map**: which column of the
//! emitted tuple each slot's tuple positions land in, and which columns
//! are constants. For a plain acyclic query ([`TdpInstance::prepare`])
//! that is the identity — one column per variable, `VarId` order; for
//! one tree of a union-of-trees plan ([`TdpInstance::prepare_case`]) it
//! is the case's [`TreeCase::out`], so every enumerator writes the
//! *original* query's columns directly and nothing downstream remaps.
//!
//! Everything above is built by [`TdpInstance::prepare`] in `Õ(n)` and
//! is immutable afterwards. One piece is filled in later: each group's
//! **successor order** — its members sorted by `(subcost, row)` — is
//! built the first time any stream deviates through that group, behind
//! a per-group [`OnceLock`], and then shared by every stream and thread
//! of the prepared query. Spawning a stream therefore costs `O(1)`; the
//! sort a group needs is paid once per prepared query, not per stream.
//!
//! # Open roots
//!
//! A delta term of a live relation — the rows appended to one atom,
//! joined with the others — is refreshed on every append, and only its
//! delta atom's rows change. [`TdpInstance::prepare_rooted`] roots the
//! tree at that atom and reduces every other slot bottom-up only
//! ([`Reduction::bottom_up`]), so their groups, costs and bests do not
//! depend on the root; [`TdpInstance::extend_root`] then adds a batch
//! at the root — each row's child groups found by binary search, its
//! subtree cost combined from their bests — and shares every other
//! slot's state, built successor orders included, with the instance it
//! extends. The refresh costs the batch and a copy of the root, not the
//! relations the batch joins.
//!
//! # Order contract
//!
//! Reduced relations keep input order; a group's members ascend by row
//! id; a group's best member — and rank 0 of its successor order — is
//! the minimum by `(subcost, row)`. Group **ids** follow ascending join
//! key (they followed hash-iteration order before the reducer became
//! sort-merge). That numbering is unobservable: a group is only ever
//! reached through `group_of_parent_row` (the root's single group is 0
//! either way), no enumerator iterates over a slot's groups, per-group
//! state is looked up by id and never walked, and candidates of equal
//! cost leave the queue in insertion order (`seq`), not in group
//! order. `tests/tdp_contract.rs` pins every clause against a
//! nested-loop reference, and pins the streams of tie-heavy instances —
//! every successor kind, REC and the unranked odometer, under Sum and
//! Lex — to the bytes the hash-numbered parent emitted.

use crate::ranking::RankingFunction;
use anyk_join::cases::{CaseOut, TreeCase};
use anyk_join::semijoin::{join_key_positions, row_bound, JoinGroups, Reduction, RepeatedVars};
use anyk_query::cq::ConjunctiveQuery;
use anyk_query::join_tree::JoinTree;
use anyk_storage::{Relation, RowId, Value};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Errors from T-DP preparation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdpError {
    /// The tree does not have one node per atom.
    TreeAtomMismatch,
    /// The ranking has no weight-level view
    /// ([`RankingFunction::weight_dioid`] is `None`, e.g.
    /// lexicographic), but the plan pre-joins input tuples and must
    /// collapse their weights (a cycle's light-light bags, GHD bag
    /// materialization). The engine's planner rejects such rankings on
    /// cyclic routes before reaching this; hand-built plans get the
    /// typed error instead of wrong costs.
    NonCollapsibleRanking,
    /// A reduced relation (or the join tree) has more entries than the
    /// 32-bit row, group and slot ids can address.
    TooLarge {
        /// The count that does not fit.
        len: usize,
    },
}

/// `len` as a 32-bit id bound, or the typed refusal. Row ids, group ids
/// and group offsets of a slot are all bounded by its relation's row
/// count, so checking that count once makes the rest lossless.
pub(crate) fn id_bound(len: usize) -> Result<u32, TdpError> {
    u32::try_from(len).map_err(|_| TdpError::TooLarge { len })
}

/// A group's member rows, ascending by row id.
#[derive(Clone, Copy)]
pub(crate) enum Members<'a> {
    /// The root group: rows `0..n` of the root relation, not stored.
    All(RowId),
    /// A join-key group's rows.
    Rows(&'a [RowId]),
}

impl<'a> Members<'a> {
    pub(crate) fn len(self) -> usize {
        match self {
            Members::All(n) => n as usize,
            Members::Rows(rows) => rows.len(),
        }
    }

    pub(crate) fn get(self, i: usize) -> Option<RowId> {
        match self {
            Members::All(n) => RowId::try_from(i).ok().filter(|&row| row < n),
            Members::Rows(rows) => rows.get(i).copied(),
        }
    }

    pub(crate) fn iter(self) -> impl Iterator<Item = RowId> + 'a {
        let (all, rows) = match self {
            Members::All(n) => (0..n, &[][..]),
            Members::Rows(rows) => (0..0, rows),
        };
        all.chain(rows.iter().copied())
    }
}

/// One slot's join-key groups: where their members are, and per group
/// its best member and shared successor order. A clone shares both
/// arrays, the orders built so far included.
#[derive(Clone)]
struct SlotGroups<C> {
    layout: Layout,
    /// group -> its best member and successor order (none at all where
    /// nothing is costed: an empty instance, an open root with no rows).
    groups: Arc<[Group<C>]>,
}

/// What a join-key group holds beyond its members.
struct Group<C> {
    /// `(best member cost, best member row)`; ties break by row id (see
    /// [`TdpInstance::prepare`]).
    best: (C, RowId),
    /// Its members sorted by `(subcost, row)`, built on first touch
    /// (see [`TdpInstance::order`]).
    order: OnceLock<Box<[RowId]>>,
}

/// Where a slot's group members are.
#[derive(Clone)]
enum Layout {
    /// The root slot: one group of all this many rows ([`Members::All`]).
    Root(RowId),
    /// `groups` join-key groups in one allocation: the offsets
    /// `csr[..=groups]`, then the member rows, group after group, each
    /// group ascending — group `g`'s members are
    /// `csr[groups + 1..][offsets[g]..offsets[g + 1]]`.
    Keyed { groups: u32, csr: Arc<[u32]> },
}

impl Layout {
    /// A non-root slot: `offsets.len() - 1` groups over `rows` (no
    /// group at all on an empty instance).
    fn keyed(offsets: &[u32], rows: &[RowId]) -> Result<Self, TdpError> {
        Ok(Layout::Keyed {
            groups: id_bound(offsets.len() - 1)?,
            csr: offsets.iter().chain(rows).copied().collect(),
        })
    }

    /// Number of groups.
    fn len(&self) -> usize {
        match self {
            Layout::Root(_) => 1,
            Layout::Keyed { groups, .. } => *groups as usize,
        }
    }

    /// Group `group`'s member rows.
    fn members(&self, group: usize) -> Members<'_> {
        match self {
            Layout::Root(n) => Members::All(*n),
            Layout::Keyed { groups, csr } => {
                let (offsets, rows) = csr.split_at(*groups as usize + 1);
                let (from, to) = (offsets[group], offsets[group + 1]);
                Members::Rows(&rows[from as usize..to as usize])
            }
        }
    }
}

/// One slot's groups, their bests given (see [`Group`]).
fn costed_groups<C>(bests: impl IntoIterator<Item = (C, RowId)>) -> Arc<[Group<C>]> {
    (bests.into_iter())
        .map(|best| Group {
            best,
            order: OnceLock::new(),
        })
        .collect()
}

/// The prepared T-DP state (see module docs). Fields are crate-visible:
/// `part` and `rec` build their enumeration structures directly on it.
/// Every per-slot array sits behind its own `Arc`, so an instance that
/// differs from another at the root alone ([`TdpInstance::extend_root`])
/// shares every other slot's state with it.
pub struct TdpInstance<R: RankingFunction> {
    pub(crate) query: ConjunctiveQuery,
    pub(crate) tree: JoinTree,
    /// Reduced relations (parallel to atoms).
    pub(crate) rels: Vec<Relation>,
    /// slot -> node id (pre-order).
    pub(crate) slots: Vec<usize>,
    /// slot -> atom index (== node's atom).
    pub(crate) atom_of_slot: Vec<usize>,
    /// slot -> parent slot (`usize::MAX` for the root slot 0).
    pub(crate) parent_slot: Vec<usize>,
    /// slot -> first slot after its subtree (pre-order contiguity).
    pub(crate) subtree_end: Vec<usize>,
    /// slot -> child slots in serialization order.
    pub(crate) child_slots: Vec<Vec<usize>>,
    /// slot -> its join-key groups. Slot 0 has a single group 0.
    groups: Vec<SlotGroups<R::Cost>>,
    /// slot (> 0) -> parent row id -> group id in this slot.
    pub(crate) group_of_parent_row: Vec<Arc<[u32]>>,
    /// slot -> row id -> optimal subtree cost through that row (no
    /// slot at all on an empty instance).
    pub(crate) subcost: Vec<Arc<[R::Cost]>>,
    /// True iff the (reduced) query has no answers.
    pub(crate) empty: bool,
    /// True iff the non-root slots were reduced bottom-up only
    /// ([`TdpInstance::prepare_rooted`]), so rows may be added at the
    /// root ([`TdpInstance::extend_root`]).
    open_root: bool,
    /// An output row before any slot has written to it: the constants
    /// of the output map, `Int(0)` elsewhere.
    template: Vec<Value>,
    /// slot -> `(tuple position, output column)` for every column this
    /// slot's tuple fills. Each non-constant column has one writer.
    scatter: Vec<Vec<(u32, u32)>>,
}

/// The output map of a plain acyclic query: one column per variable,
/// in `VarId` order.
fn identity_out(q: &ConjunctiveQuery) -> Vec<CaseOut> {
    (0..q.num_vars()).map(CaseOut::Var).collect()
}

/// The checks made before anything is sorted: one tree node and one
/// relation per atom, and every relation within the 32-bit ids — every
/// row, group and offset id below is bounded by one of these counts.
fn check_inputs(q: &ConjunctiveQuery, tree: &JoinTree, rels: &[Relation]) -> Result<(), TdpError> {
    if tree.len() != q.num_atoms() || rels.len() != q.num_atoms() {
        return Err(TdpError::TreeAtomMismatch);
    }
    for rel in rels {
        id_bound(rel.len())?;
    }
    Ok(())
}

/// `best` or `(cost, row)`, whichever is smaller by `(cost, row)` — the
/// one tie rule of group bests (see [`TdpInstance::prepare`]).
fn min_member<C: Ord + Clone>(best: Option<(C, RowId)>, cost: &C, row: RowId) -> (C, RowId) {
    match best {
        Some(best) if (&best.0, best.1) <= (cost, row) => best,
        _ => (cost.clone(), row),
    }
}

impl<R: RankingFunction> TdpInstance<R> {
    /// Run the preprocessing phase. `rels` are consumed (reduced in
    /// place). The query/tree must describe an acyclic join (one tree
    /// node per atom, running-intersection holds — as produced by
    /// [`anyk_query::gyo::gyo_reduce`]). Answers carry one value per
    /// variable, in `VarId` order.
    pub fn prepare(
        q: &ConjunctiveQuery,
        tree: &JoinTree,
        rels: Vec<Relation>,
    ) -> Result<Self, TdpError> {
        Self::prepare_case(TreeCase {
            label: String::new(),
            query: q.clone(),
            tree: tree.clone(),
            relations: rels,
            out: identity_out(q),
        })
    }

    /// [`prepare`](Self::prepare) for one tree of a union-of-trees
    /// plan: answers carry one value per entry of `case.out` — the
    /// original query's columns — constants included.
    pub fn prepare_case(case: TreeCase) -> Result<Self, TdpError> {
        let TreeCase {
            query: q,
            tree,
            relations: mut rels,
            out,
            ..
        } = case;
        check_inputs(&q, &tree, &rels)?;
        let reduction = Reduction::run(&q, &tree, &mut rels);
        let empty = rels.iter().any(|r| r.is_empty());
        Self::build(q, tree, rels, reduction, &out, empty, false)
    }

    /// [`prepare`](Self::prepare) for a tree rooted at the atom whose
    /// relation grows between refreshes — a delta term's delta atom.
    /// Every other slot is reduced bottom-up only
    /// ([`Reduction::bottom_up`]): its groups, subtree costs and bests
    /// do not depend on the root's rows, so
    /// [`extend_root`](Self::extend_root) can add rows at the root and
    /// share them. The root's rows are added the same way here, to an
    /// empty root. A
    /// base row no root row reaches is unreachable, not wrong: every
    /// enumerator reaches a non-root group through a root row.
    ///
    /// Costs combine in `tree`'s serialization order, as
    /// [`prepare`](Self::prepare)'s do: rooting a tree elsewhere changes
    /// that order, which changes a non-commutative ranking's costs and
    /// may round an inexact one (IEEE `+`, `×`) differently.
    pub fn prepare_rooted(
        q: &ConjunctiveQuery,
        tree: &JoinTree,
        mut rels: Vec<Relation>,
    ) -> Result<Self, TdpError> {
        check_inputs(q, tree, &rels)?;
        let root = tree.node(tree.root()).atom;
        let empty_root = Relation::empty(rels[root].schema().clone());
        let root_rows = std::mem::replace(&mut rels[root], empty_root);
        let reduction = Reduction::bottom_up(q, tree, &mut rels);
        let out = identity_out(q);
        let base = Self::build(q.clone(), tree.clone(), rels, reduction, &out, true, true)?;
        base.extend_root(&root_rows)
    }

    /// The instance every per-slot structure is read off: `rels` are
    /// reduced and `reduction` holds their groups. With `open_root`,
    /// the root is left empty and costed by
    /// [`extend_root`](Self::extend_root); otherwise an `empty` instance
    /// costs nothing.
    fn build(
        q: ConjunctiveQuery,
        tree: JoinTree,
        rels: Vec<Relation>,
        reduction: Reduction,
        out: &[CaseOut],
        empty: bool,
        open_root: bool,
    ) -> Result<Self, TdpError> {
        let (slots, parent_slot) = tree.preorder_slots();
        let m = slots.len();
        let atom_of_slot: Vec<usize> = slots.iter().map(|&n| tree.node(n).atom).collect();
        // Ascending `s` leaves every list in serialization order.
        let mut child_slots: Vec<Vec<usize>> = vec![Vec::new(); m];
        for s in 1..m {
            child_slots[parent_slot[s]].push(s);
        }
        // subtree_end: max slot in subtree + 1, computable right-to-left.
        let mut subtree_end = vec![0usize; m];
        for s in (0..m).rev() {
            let mut end = s + 1;
            for &c in &child_slots[s] {
                end = end.max(subtree_end[c]);
            }
            subtree_end[s] = end;
        }

        // Row counts of the reduced relations.
        let num_rows: Vec<RowId> = (rels.iter())
            .map(|r| id_bound(r.len()))
            .collect::<Result<_, _>>()?;
        id_bound(m)?;

        // Grouping: each slot's groups are read off the matched key
        // runs the reducer kept (none at all on an empty instance).
        let mut layouts: Vec<Layout> = Vec::with_capacity(m);
        let mut group_of_parent_row: Vec<Arc<[u32]>> = Vec::with_capacity(m);
        layouts.push(Layout::Root(num_rows[atom_of_slot[0]]));
        group_of_parent_row.push(Arc::default());
        for &node in &slots[1..] {
            let JoinGroups {
                offsets,
                rows,
                of_parent_row,
            } = reduction.groups(node);
            layouts.push(Layout::keyed(&offsets, &rows)?);
            group_of_parent_row.push(of_parent_row.into());
        }
        // The runs are no longer needed: free them before the cost
        // vectors below are allocated.
        drop(reduction);

        // Bottom-up subtree costs + per-group bests, collected leaf
        // slot first: slot `s` is read at `m - 1 - s` until reversed.
        // An open root's are set by `extend_root`.
        let costed = match (open_root, empty) {
            (true, _) => 1..m,
            (false, true) => 0..0,
            (false, false) => 0..m,
        };
        let slots_kept = if open_root || !empty { m } else { 0 };
        let mut subcost: Vec<Arc<[R::Cost]>> = Vec::with_capacity(slots_kept);
        let mut groups: Vec<Arc<[Group<R::Cost>]>> = Vec::with_capacity(m);
        for s in costed.rev() {
            let atom = atom_of_slot[s];
            let rel = &rels[atom];
            let children = &child_slots[s];
            let costs: Arc<[R::Cost]> = (0..num_rows[atom])
                .map(|row| {
                    let mut c = R::lift(rel.weight(row));
                    for &cs in children {
                        let gid = group_of_parent_row[cs][row as usize] as usize;
                        c = R::combine(&c, &groups[m - 1 - cs][gid].best.0);
                    }
                    c
                })
                .collect();
            // Group bests for this slot. Ties MUST break by row id:
            // the Lawler partition in `part` assumes the completion
            // chosen here is the exact member the successor orders
            // call "best" — they compare `(cost, row)`, so we do too.
            let bests = (0..layouts[s].len()).map(|g| {
                let members = layouts[s].members(g).iter();
                let best = members.fold(None, |best, r| {
                    Some(min_member(best, &costs[r as usize], r))
                });
                best.expect("groups are non-empty")
            });
            groups.push(costed_groups(bests));
            subcost.push(costs);
        }
        if open_root {
            subcost.push(Arc::default());
            groups.push(Arc::default());
        }
        subcost.reverse();
        groups.reverse();
        let uncosted = std::iter::repeat_with(Arc::default);
        let groups: Vec<SlotGroups<R::Cost>> = (layouts.into_iter())
            .zip(groups.into_iter().chain(uncosted))
            .map(|(layout, groups)| SlotGroups { layout, groups })
            .collect();

        // The output map. A variable bound at several tuple positions
        // is read at the last of them in slot order — all hold the same
        // value in an answer, and one read per column is all it takes.
        let mut last_binding = vec![(0, 0); q.num_vars()];
        for (s, &atom) in atom_of_slot.iter().enumerate() {
            for (pos, &v) in q.atom(atom).vars.iter().enumerate() {
                last_binding[v] = (s, id_bound(pos)?);
            }
        }
        let mut template = vec![Value::Int(0); out.len()];
        let mut scatter = vec![Vec::new(); m];
        for (col, from) in out.iter().enumerate() {
            match *from {
                CaseOut::Fixed(v) => template[col] = v,
                CaseOut::Var(v) => {
                    let (s, pos) = last_binding[v];
                    scatter[s].push((pos, id_bound(col)?));
                }
            }
        }

        Ok(TdpInstance {
            query: q,
            tree,
            rels,
            slots,
            atom_of_slot,
            parent_slot,
            subtree_end,
            child_slots,
            groups,
            group_of_parent_row,
            subcost,
            empty,
            open_root,
            template,
            scatter,
        })
    }

    /// Can rows be added at the root ([`extend_root`](Self::extend_root))?
    /// True exactly for [`prepare_rooted`](Self::prepare_rooted)'s
    /// instances and their extensions.
    pub fn has_open_root(&self) -> bool {
        self.open_root
    }

    /// This instance with `batch`'s rows added after its root's —
    /// exactly what [`prepare_rooted`](Self::prepare_rooted) returns
    /// over the root relation grown by `batch`. Only the root is built:
    /// a batch row is dropped unless it agrees on the root atom's
    /// repeated variables and its key is found, by binary search, among
    /// each child slot's groups (they ascend by join key); a kept row
    /// records those groups and its subtree cost. The root's arrays are
    /// copies — a stream open on `self` keeps its snapshot — and every
    /// other slot's groups, costs, bests and successor orders are
    /// shared, so the cost is `O(root + batch · log groups)` whatever
    /// the other relations hold.
    ///
    /// # Panics
    ///
    /// Unless [`has_open_root`](Self::has_open_root): on a fully
    /// reduced instance a child group may lack rows the new root rows
    /// join.
    pub fn extend_root(&self, batch: &Relation) -> Result<Self, TdpError> {
        assert!(self.open_root, "rows are added only at an open root");
        let root_atom = self.atom_of_slot[0];
        let old = &self.rels[root_atom];
        let n_old = id_bound(old.len())?;
        // Per child slot: its key positions, and the root's.
        let edges: Vec<(usize, Vec<usize>, Vec<usize>)> = (self.child_slots[0].iter())
            .map(|&c| {
                let (cpos, ppos) = join_key_positions(&self.query, &self.tree, self.slots[c]);
                (c, cpos, ppos)
            })
            .collect();
        let repeats = RepeatedVars::of(self.query.atom(root_atom));
        let mut keep = vec![false; batch.len()];
        let mut found: Vec<Vec<u32>> = (edges.iter())
            .map(|_| Vec::with_capacity(batch.len()))
            .collect();
        let mut at = Vec::with_capacity(edges.len());
        for r in 0..row_bound(batch) {
            let row = batch.row(r);
            if !repeats.agree(row) {
                continue;
            }
            at.clear();
            for (c, cpos, ppos) in &edges {
                match self.find_group(*c, cpos, |i| row[ppos[i]]) {
                    Some(g) => at.push(g),
                    None => break,
                }
            }
            if at.len() == edges.len() {
                keep[r as usize] = true;
                for (gids, &g) in found.iter_mut().zip(&at) {
                    gids.push(g);
                }
            }
        }
        let mut fresh = batch.clone();
        fresh.retain(|r| keep[r as usize]);
        let root = if old.is_empty() {
            fresh
        } else {
            Relation::concat(&[old.clone(), fresh])
        };
        let n = id_bound(root.len())?;

        let mut group_of_parent_row = self.group_of_parent_row.clone();
        for ((c, ..), gids) in edges.iter().zip(found) {
            let had = self.group_of_parent_row[*c].iter().copied();
            group_of_parent_row[*c] = had.chain(gids).collect();
        }
        let cost = |row: RowId| {
            let mut c = R::lift(root.weight(row));
            for &(cs, ..) in &edges {
                let gid = group_of_parent_row[cs][row as usize] as usize;
                c = R::combine(&c, &self.best(cs, gid).0);
            }
            c
        };
        let costs: Arc<[R::Cost]> = (self.subcost[0].iter().cloned())
            .chain((n_old..n).map(cost))
            .collect();
        let old_best = self.groups[0].groups.first().map(|g| g.best.clone());
        let best = (n_old..n).fold(old_best, |best, r| {
            Some(min_member(best, &costs[r as usize], r))
        });

        let mut rels = self.rels.clone();
        rels[root_atom] = root;
        let mut groups = self.groups.clone();
        groups[0] = SlotGroups {
            layout: Layout::Root(n),
            groups: costed_groups(best),
        };
        let mut subcost = self.subcost.clone();
        subcost[0] = costs;
        Ok(TdpInstance {
            query: self.query.clone(),
            tree: self.tree.clone(),
            rels,
            slots: self.slots.clone(),
            atom_of_slot: self.atom_of_slot.clone(),
            parent_slot: self.parent_slot.clone(),
            subtree_end: self.subtree_end.clone(),
            child_slots: self.child_slots.clone(),
            groups,
            group_of_parent_row,
            subcost,
            empty: n == 0,
            open_root: true,
            template: self.template.clone(),
            scatter: self.scatter.clone(),
        })
    }

    /// The group of `slot` whose join key — the member rows' values at
    /// `positions` — equals `key(0), key(1), …`: a binary search, the
    /// groups ascending by key (module docs, order contract).
    fn find_group(
        &self,
        slot: usize,
        positions: &[usize],
        key: impl Fn(usize) -> Value,
    ) -> Option<u32> {
        let groups = &self.groups[slot].layout;
        let rel = &self.rels[self.atom_of_slot[slot]];
        let (mut lo, mut hi) = (0, groups.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let member = rel.row(groups.members(mid).get(0)?);
            let ord = (positions.iter().enumerate())
                .map(|(i, &p)| member[p].cmp(&key(i)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal);
            match ord {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return u32::try_from(mid).ok(),
            }
        }
        None
    }

    /// Number of slots (= atoms = join-tree nodes).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The query this instance answers.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The join tree driving the DP.
    pub fn join_tree(&self) -> &JoinTree {
        &self.tree
    }

    /// Total rows across the (reduced) relations — the preprocessing
    /// input size `n` reported by experiments.
    pub fn reduced_input_size(&self) -> usize {
        self.rels.iter().map(|r| r.len()).sum()
    }

    /// True iff the query has no answers on this database.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// The cost of the top-ranked answer, if any.
    pub fn top1_cost(&self) -> Option<R::Cost> {
        if self.empty {
            None
        } else {
            Some(self.best(0, 0).0.clone())
        }
    }

    /// The member rows of `group` at `slot`, ascending by row id.
    #[inline]
    pub(crate) fn group(&self, slot: usize, group: u32) -> Members<'_> {
        self.groups[slot].layout.members(group as usize)
    }

    /// The successor order of `group` at `slot`: its members sorted by
    /// `(subcost, row)`, rank 0 being the member [`Self::prepare`]
    /// recorded as the group's best. The first caller to touch a group
    /// sorts it (`O(g log g)` for `g` members, comparing the prepared
    /// subcosts in place — nothing is cloned); every later caller, on
    /// any stream or thread, reads the same slice.
    #[inline]
    pub(crate) fn order(&self, slot: usize, group: u32) -> &[RowId] {
        let members = self.group(slot, group);
        if let Members::Rows(rows @ ([] | [_])) = members {
            return rows;
        }
        self.groups[slot].groups[group as usize]
            .order
            .get_or_init(|| {
                let costs = &self.subcost[slot];
                let mut order: Box<[RowId]> = members.iter().collect();
                order.sort_unstable_by(|&a, &b| {
                    (&costs[a as usize], a).cmp(&(&costs[b as usize], b))
                });
                order
            })
    }

    /// `(best member cost, best member row)` of `group` at `slot`.
    #[inline]
    pub(crate) fn best(&self, slot: usize, group: usize) -> &(R::Cost, RowId) {
        &self.groups[slot].groups[group].best
    }

    /// How many groups have had their successor order built so far, by
    /// any stream (laziness diagnostic: a top-`k` pull touches at most
    /// one group per slot and answer, so this stays `o(n)` for small
    /// `k`).
    pub fn built_orders(&self) -> usize {
        (self.groups.iter())
            .flat_map(|g| g.groups.iter())
            .filter(|g| g.order.get().is_some())
            .count()
    }

    /// Lifted weight of the tuple chosen at `slot`.
    #[inline]
    pub(crate) fn slot_weight(&self, slot: usize, row: RowId) -> R::Cost {
        R::lift(self.rels[self.atom_of_slot[slot]].weight(row))
    }

    /// Assemble the output tuple from per-slot row choices: the
    /// constants of the output map, then each slot's tuple scattered
    /// into the columns it fills.
    pub(crate) fn assemble(&self, rows_by_slot: &[RowId]) -> Vec<Value> {
        let mut out = self.template.clone();
        self.scatter(rows_by_slot, &mut out);
        out
    }

    /// [`assemble`](Self::assemble) into a row the caller owns — a row
    /// of a page's slab — which must have one slot per output column.
    pub(crate) fn assemble_into(&self, rows_by_slot: &[RowId], out: &mut [Value]) {
        out.copy_from_slice(&self.template);
        self.scatter(rows_by_slot, out);
    }

    /// Write each slot's tuple into the output columns it fills.
    #[inline]
    fn scatter(&self, rows_by_slot: &[RowId], out: &mut [Value]) {
        for (s, &row) in rows_by_slot.iter().enumerate() {
            let tuple = self.rels[self.atom_of_slot[s]].row(row);
            for &(pos, col) in &self.scatter[s] {
                out[col as usize] = tuple[pos as usize];
            }
        }
    }

    /// The group id at `slot` given the (already chosen) parent row.
    #[inline]
    pub(crate) fn group_at(&self, slot: usize, rows_by_slot: &[RowId]) -> u32 {
        debug_assert!(slot > 0);
        let prow = rows_by_slot[self.parent_slot[slot]];
        self.group_of_parent_row[slot][prow as usize]
    }

    /// Complete slots `[from, to)` optimally via best-pointers, assuming
    /// all ancestors of those slots (at positions `< from` or already
    /// filled) are set in `rows_by_slot`.
    pub(crate) fn complete_optimally(&self, rows_by_slot: &mut [RowId], from: usize, to: usize) {
        for s in from..to {
            let gid = self.group_at(s, rows_by_slot) as usize;
            rows_by_slot[s] = self.best(s, gid).1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{MaxCost, SumCost};
    use anyk_query::cq::{path_query, star_query};
    use anyk_query::gyo::{gyo_reduce, GyoResult};
    use anyk_storage::{RelationBuilder, Schema, Weight};

    fn edge_rel(cols: [&str; 2], rows: &[(i64, i64, f64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(cols));
        for &(x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    fn tree_of(q: &ConjunctiveQuery) -> JoinTree {
        match gyo_reduce(q) {
            GyoResult::Acyclic(t) => t,
            _ => panic!(),
        }
    }

    #[test]
    fn top1_on_path() {
        // Two 2-paths: 1-2-5 (w 1+1=2) and 1-3-6 (w 0.5+0.25=0.75).
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 1.0), (1, 3, 0.5)]),
            edge_rel(["b", "c"], &[(2, 5, 1.0), (3, 6, 0.25)]),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        assert!(!inst.is_empty());
        assert_eq!(inst.top1_cost(), Some(Weight::new(0.75)));
    }

    #[test]
    fn top1_max_ranking() {
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 1.0), (1, 3, 0.5)]),
            edge_rel(["b", "c"], &[(2, 5, 0.1), (3, 6, 0.9)]),
        ];
        // max(1.0, 0.1) = 1.0 vs max(0.5, 0.9) = 0.9 -> 0.9 wins.
        let inst = TdpInstance::<MaxCost>::prepare(&q, &tree, rels).unwrap();
        assert_eq!(inst.top1_cost(), Some(Weight::new(0.9)));
    }

    #[test]
    fn empty_when_no_join() {
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 1.0)]),
            edge_rel(["b", "c"], &[(9, 5, 1.0)]),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        assert!(inst.is_empty());
        assert_eq!(inst.top1_cost(), None);
    }

    #[test]
    fn star_subtree_ends() {
        // Build the star-shaped tree explicitly (GYO may produce a
        // chain, which is also valid but has different subtree ranges).
        let q = star_query(3);
        let tree = JoinTree::from_parents(&q, &[None, Some(0), Some(0)]);
        let rels = vec![
            edge_rel(["o", "a"], &[(1, 2, 0.0)]),
            edge_rel(["o", "b"], &[(1, 3, 0.0)]),
            edge_rel(["o", "c"], &[(1, 4, 0.0)]),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let m = inst.num_slots();
        assert_eq!(m, 3);
        assert_eq!(inst.subtree_end[0], 3);
        // Leaf slots have singleton subtrees.
        for s in 1..m {
            assert_eq!(inst.subtree_end[s], s + 1);
        }
    }

    #[test]
    fn completion_follows_best_pointers() {
        // Pin the tree shape: root = R1, chain R1 <- R2 <- R3.
        let q = path_query(3);
        let tree = JoinTree::from_parents(&q, &[None, Some(0), Some(1)]);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 1.0)]),
            edge_rel(["b", "c"], &[(2, 3, 5.0), (2, 4, 1.0)]),
            edge_rel(["c", "d"], &[(3, 9, 1.0), (4, 9, 2.0)]),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let mut rows = vec![0 as RowId; 3];
        rows[0] = 0; // slot 0 = root = R1's single row (1,2).
        inst.complete_optimally(&mut rows, 1, 3);
        // Best completion: (2,4) w1 + (4,9) w2 = 3 < (2,3)+(3,9) = 6.
        let chosen_mid = inst.rels[inst.atom_of_slot[1]].row(rows[1]);
        assert_eq!(chosen_mid[1].int(), 4);
        assert_eq!(inst.top1_cost(), Some(Weight::new(4.0)));
    }

    #[test]
    fn shared_orders_sort_by_cost_then_row_and_are_built_once() {
        // R1 has one row; its child group in R2 has four members, two
        // of them tied; R3 hangs a singleton group under each.
        let q = path_query(3);
        let tree = JoinTree::from_parents(&q, &[None, Some(0), Some(1)]);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 1.0)]),
            edge_rel(
                ["b", "c"],
                &[(2, 3, 5.0), (2, 4, 1.0), (2, 5, 5.0), (2, 6, 0.5)],
            ),
            edge_rel(
                ["c", "d"],
                &[(3, 9, 0.0), (4, 9, 0.0), (5, 9, 0.0), (6, 9, 0.0)],
            ),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        assert_eq!(inst.built_orders(), 0, "prepare builds no order");

        let order = inst.order(1, 0);
        let costs: Vec<f64> = (order.iter())
            .map(|&r| inst.subcost[1][r as usize].get())
            .collect();
        assert_eq!(costs, vec![0.5, 1.0, 5.0, 5.0]);
        assert!(order[2] < order[3], "ties break by row id");
        assert_eq!(order[0], inst.best(1, 0).1, "rank 0 is the best");
        let mut members = order.to_vec();
        members.sort_unstable();
        let group: Vec<RowId> = inst.group(1, 0).iter().collect();
        assert_eq!(members, group, "a permutation of the group");
        assert_eq!(inst.built_orders(), 1);
        assert!(std::ptr::eq(order, inst.order(1, 0)), "built once, shared");

        // A one-member group is its own order: nothing to build.
        assert_eq!(inst.order(2, 0).len(), 1);
        assert_eq!(inst.built_orders(), 1);
        // The root group is every row, and is not stored.
        assert!(matches!(inst.group(0, 0), Members::All(1)));
        assert_eq!(inst.order(0, 0), [0]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn counts_beyond_32_bit_ids_are_refused() {
        // The boundary itself, without allocating four billion rows.
        let limit = u32::MAX as usize;
        assert_eq!(id_bound(limit), Ok(u32::MAX));
        assert_eq!(
            id_bound(limit + 1),
            Err(TdpError::TooLarge { len: limit + 1 })
        );
    }

    #[test]
    fn mismatched_tree_rejected() {
        let q = path_query(2);
        let tree = tree_of(&path_query(3));
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 0.0)]),
            edge_rel(["b", "c"], &[(2, 3, 0.0)]),
        ];
        assert!(TdpInstance::<SumCost>::prepare(&q, &tree, rels).is_err());
    }

    #[test]
    fn an_open_root_grown_by_a_batch_is_the_rooted_prepare_over_both() {
        use crate::part::AnyKPart;
        use crate::succorder::SuccessorKind;
        // Rooted at R1, the atom that grows; R3 drops R2's (7, 8)
        // bottom-up, and the R1 rows (1, 9) and (4, 7) find no group.
        let q = path_query(3);
        let tree = JoinTree::from_parents(&q, &[None, Some(0), Some(1)]);
        let r2 = edge_rel(
            ["b", "c"],
            &[(2, 3, 1.0), (2, 4, 0.5), (5, 6, 0.25), (7, 8, 0.0)],
        );
        let r3 = edge_rel(["c", "d"], &[(3, 9, 1.0), (4, 9, 2.0), (6, 9, 0.5)]);
        let first = edge_rel(["a", "b"], &[(1, 2, 1.0), (1, 9, 0.0)]);
        let second = edge_rel(["a", "b"], &[(3, 5, 0.5), (4, 7, 0.0), (5, 2, 0.125)]);
        let both = Relation::concat(&[first.clone(), second.clone()]);
        let rels = |r1: Relation| vec![r1, r2.clone(), r3.clone()];
        let rooted = TdpInstance::<SumCost>::prepare_rooted(&q, &tree, rels(first)).unwrap();
        assert_eq!(rooted.rels[0].len(), 1);
        let grown = rooted.extend_root(&second).unwrap();
        assert_eq!(grown.rels[0].len(), 3, "(1, 2), (3, 5), (5, 2)");
        assert_eq!(grown.rels[1].len(), 3, "bottom-up only: (2, 4) stays");
        assert!(Arc::ptr_eq(&grown.subcost[1], &rooted.subcost[1]));
        assert!(Arc::ptr_eq(
            &grown.groups[2].groups,
            &rooted.groups[2].groups
        ));
        assert_eq!(rooted.rels[0].len(), 1, "the extended instance is a copy");

        let answers = |inst: TdpInstance<SumCost>| -> Vec<(f64, Vec<Value>)> {
            (AnyKPart::new(inst, SuccessorKind::Eager))
                .map(|a| (a.cost.get(), a.values))
                .collect()
        };
        let want = answers(TdpInstance::prepare(&q, &tree, rels(both.clone())).unwrap());
        assert_eq!(want.len(), 5);
        assert_eq!(answers(grown), want);
        let whole = TdpInstance::prepare_rooted(&q, &tree, rels(both)).unwrap();
        assert_eq!(answers(whole), want);
    }
}
