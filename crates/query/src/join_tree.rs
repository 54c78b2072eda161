//! Rooted join trees for acyclic (sub)queries.
//!
//! A join tree has one node per atom; for every variable, the nodes whose
//! atoms use it form a connected subtree (the *running intersection*
//! property). Yannakakis and T-DP both operate on this structure.

use crate::cq::{ConjunctiveQuery, VarId};

/// Index of a node in a [`JoinTree`].
pub type NodeId = usize;

/// One join-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTreeNode {
    /// The atom (index into the query's atom list) at this node.
    pub atom: usize,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children in insertion order.
    pub children: Vec<NodeId>,
    /// Variables shared with the parent (sorted; empty for the root —
    /// a cartesian-product edge would also be empty, which is legal).
    pub join_vars: Vec<VarId>,
}

/// A rooted join tree over the atoms of a conjunctive query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    nodes: Vec<JoinTreeNode>,
    root: NodeId,
}

impl JoinTree {
    /// Build from parent pointers over atoms: `parents[i]` is the atom
    /// index of atom `i`'s parent (`None` exactly once, for the root).
    /// Join variables are derived from the query.
    pub fn from_parents(q: &ConjunctiveQuery, parents: &[Option<usize>]) -> Self {
        assert_eq!(parents.len(), q.num_atoms());
        let root = parents
            .iter()
            .position(|p| p.is_none())
            .expect("exactly one root required");
        assert_eq!(
            parents.iter().filter(|p| p.is_none()).count(),
            1,
            "exactly one root required"
        );
        let mut nodes: Vec<JoinTreeNode> = (0..q.num_atoms())
            .map(|i| JoinTreeNode {
                atom: i,
                parent: parents[i],
                children: Vec::new(),
                join_vars: match parents[i] {
                    Some(p) => q.shared_vars(i, p),
                    None => Vec::new(),
                },
            })
            .collect();
        for i in 0..nodes.len() {
            if let Some(p) = nodes[i].parent {
                nodes[p].children.push(i);
            }
        }
        let tree = JoinTree { nodes, root };
        debug_assert!(tree.preorder().len() == tree.len(), "parent cycle");
        tree
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the tree has no nodes (never for trees built from
    /// queries, which have >= 1 atom).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &JoinTreeNode {
        &self.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[JoinTreeNode] {
        &self.nodes
    }

    /// Node ids in pre-order (root first, children in order). Each
    /// subtree occupies a contiguous range — the property T-DP's
    /// serialization relies on.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            // Push children reversed so they pop in order.
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// [`preorder`](Self::preorder) together with, per pre-order
    /// position ("slot"), the slot of that node's parent
    /// (`usize::MAX` at the root) — the bookkeeping every pre-order
    /// walk over the tree starts from.
    pub fn preorder_slots(&self) -> (Vec<NodeId>, Vec<usize>) {
        let order = self.preorder();
        let mut slot_of = vec![usize::MAX; self.nodes.len()];
        for (s, &n) in order.iter().enumerate() {
            slot_of[n] = s;
        }
        let parent_slot = (order.iter())
            .map(|&n| self.nodes[n].parent.map_or(usize::MAX, |p| slot_of[p]))
            .collect();
        (order, parent_slot)
    }

    /// The same tree rooted at `node`: the parent links on the path
    /// from `node` up to the old root are reversed, every other link is
    /// kept, so every edge still joins the same two atoms on the same
    /// variables. Rooted at its own root, the tree is returned as it is
    /// (children in the same order).
    pub fn rerooted(&self, q: &ConjunctiveQuery, node: NodeId) -> JoinTree {
        if node == self.root {
            return self.clone();
        }
        let atom = |n: NodeId| self.nodes[n].atom;
        let mut parents = vec![None; self.nodes.len()];
        for n in &self.nodes {
            parents[n.atom] = n.parent.map(atom);
        }
        let (mut child, mut up) = (node, self.nodes[node].parent);
        parents[atom(node)] = None;
        while let Some(p) = up {
            up = self.nodes[p].parent;
            parents[atom(p)] = Some(atom(child));
            child = p;
        }
        JoinTree::from_parents(q, &parents)
    }

    /// Check the running-intersection property against `q`: for each
    /// variable, the atoms using it must induce a connected subtree.
    pub fn satisfies_running_intersection(&self, q: &ConjunctiveQuery) -> bool {
        for v in 0..q.num_vars() {
            let using: Vec<NodeId> = (0..self.nodes.len())
                .filter(|&n| q.atom(self.nodes[n].atom).uses(v))
                .collect();
            if using.len() <= 1 {
                continue;
            }
            // Walk up from each using node; the variable must stay
            // present along the path to the "highest" using node.
            // Equivalent check: the set is connected iff every using
            // node except the highest has a parent whose subtree-path
            // eventually reaches another using node through using nodes.
            // Simple BFS over tree edges restricted to `using`:
            let mut seen = vec![false; self.nodes.len()];
            let mut stack = vec![using[0]];
            seen[using[0]] = true;
            let in_using = |n: NodeId| using.contains(&n);
            let mut count = 0;
            while let Some(n) = stack.pop() {
                count += 1;
                let mut adj: Vec<NodeId> = self.nodes[n].children.clone();
                if let Some(p) = self.nodes[n].parent {
                    adj.push(p);
                }
                for a in adj {
                    if !seen[a] && in_using(a) {
                        seen[a] = true;
                        stack.push(a);
                    }
                }
            }
            if count != using.len() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{path_query, star_query, QueryBuilder};

    #[test]
    fn from_parents_builds_chain() {
        let q = path_query(3);
        let t = JoinTree::from_parents(&q, &[None, Some(0), Some(1)]);
        assert_eq!(t.root(), 0);
        assert_eq!(t.node(1).join_vars, vec![q.var("x1").unwrap()]);
        assert_eq!(t.node(2).join_vars, vec![q.var("x2").unwrap()]);
        assert_eq!(t.preorder(), vec![0, 1, 2]);
        assert!(t.satisfies_running_intersection(&q));
    }

    #[test]
    fn star_tree() {
        let q = star_query(3);
        let t = JoinTree::from_parents(&q, &[None, Some(0), Some(0)]);
        assert_eq!(t.node(0).children, vec![1, 2]);
        assert_eq!(t.preorder(), vec![0, 1, 2]);
        assert!(t.satisfies_running_intersection(&q));
    }

    #[test]
    fn preorder_contiguous_subtrees() {
        // Build: 0 -> {1 -> {2}, 3}
        let q = QueryBuilder::new()
            .atom("A", &["a", "b"])
            .atom("B", &["b", "c"])
            .atom("C", &["c", "d"])
            .atom("D", &["a", "e"])
            .build();
        let t = JoinTree::from_parents(&q, &[None, Some(0), Some(1), Some(0)]);
        assert_eq!(t.preorder(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn rerooting_reverses_the_path_to_the_new_root() {
        let q = path_query(4);
        let t = JoinTree::from_parents(&q, &[Some(1), Some(2), None, Some(2)]);
        let r = t.rerooted(&q, 0);
        assert_eq!(r.root(), 0);
        assert_eq!(r.node(1).parent, Some(0));
        assert_eq!(r.node(2).parent, Some(1));
        assert_eq!(r.node(3).parent, Some(2), "off the path: kept");
        assert_eq!(r.node(2).join_vars, t.node(1).join_vars, "same edge");
        assert!(r.satisfies_running_intersection(&q));
        assert_eq!(t.rerooted(&q, 2), t, "at its own root: unchanged");
    }

    #[test]
    fn running_intersection_violation_detected() {
        // Path query but tree connects R1-R3 directly: x1 appears at
        // nodes 0,1 (fine), x2 at 1,2 (parent of 2 is 0 -> disconnected).
        let q = path_query(3);
        let t = JoinTree::from_parents(&q, &[None, Some(0), Some(0)]);
        assert!(!t.satisfies_running_intersection(&q));
    }

    #[test]
    #[should_panic]
    fn two_roots_rejected() {
        let q = path_query(2);
        let _ = JoinTree::from_parents(&q, &[None, None]);
    }
}
