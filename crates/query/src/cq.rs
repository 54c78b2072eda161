//! Full conjunctive queries (natural joins, no projection).
//!
//! A query is a set of *atoms* `R_i(x, y, ...)` over named variables.
//! Self-joins are first-class: two atoms may reference the same relation
//! with different variable lists (e.g. the 4-cycle over an edge relation,
//! §1 of the paper). At execution time, atoms are paired positionally
//! with a `&[Relation]` slice: atom `i`'s `j`-th variable binds column
//! `j` of relation `i`.

use std::fmt;

/// A query variable, an index into [`ConjunctiveQuery::var_names`].
pub type VarId = usize;

/// One query atom: a relation name plus its variable list (positional).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Relation name (purely informational; execution binds by index).
    pub relation: String,
    /// Variables, one per column of the relation.
    pub vars: Vec<VarId>,
}

impl Atom {
    /// Does this atom use variable `v`?
    pub fn uses(&self, v: VarId) -> bool {
        self.vars.contains(&v)
    }

    /// Column positions (possibly several, for repeated variables) at
    /// which `v` occurs.
    pub fn positions_of(&self, v: VarId) -> Vec<usize> {
        self.vars
            .iter()
            .enumerate()
            .filter_map(|(i, &u)| (u == v).then_some(i))
            .collect()
    }
}

/// A full conjunctive query (all variables are output variables).
/// Equality and hashing are structural — variable names, then atoms —
/// so a query is its own key in the engine's plan cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    var_names: Vec<String>,
    atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Atom `i`.
    pub fn atom(&self, i: usize) -> &Atom {
        &self.atoms[i]
    }

    /// Variable names, indexed by [`VarId`].
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// Name of variable `v`.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v]
    }

    /// The `VarId` of `name`, if declared.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.var_names.iter().position(|n| n == name)
    }

    /// Variables shared by atoms `a` and `b` (sorted).
    pub fn shared_vars(&self, a: usize, b: usize) -> Vec<VarId> {
        let mut out: Vec<VarId> = self.atoms[a]
            .vars
            .iter()
            .copied()
            .filter(|&v| self.atoms[b].uses(v))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All atoms (indices) using variable `v`.
    pub fn atoms_using(&self, v: VarId) -> Vec<usize> {
        (0..self.atoms.len())
            .filter(|&i| self.atoms[i].uses(v))
            .collect()
    }

    /// A copy of this query with atom `i` retargeted at `relation`.
    /// Variable ids, variable names, and every other atom are preserved
    /// exactly — the seam a sharded partition uses to point one atom at a
    /// hash fragment of its relation without perturbing the query
    /// structure. Panics if `i` is out of range.
    pub fn with_atom_relation<S: Into<String>>(&self, i: usize, relation: S) -> ConjunctiveQuery {
        let mut q = self.clone();
        q.atoms[i].relation = relation.into();
        q
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                let vars: Vec<&str> = a.vars.iter().map(|&v| self.var_name(v)).collect();
                format!("{}({})", a.relation, vars.join(","))
            })
            .collect();
        write!(f, "{}", parts.join(" ⋈ "))
    }
}

/// Fluent construction of a [`ConjunctiveQuery`]; variables are declared
/// implicitly on first use.
#[derive(Debug, Default)]
pub struct QueryBuilder {
    var_names: Vec<String>,
    atoms: Vec<Atom>,
}

impl QueryBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        QueryBuilder::default()
    }

    /// The id of variable `name`, declared on first use.
    fn var_id<S: AsRef<str> + Into<String>>(&mut self, name: S) -> VarId {
        match self.var_names.iter().position(|n| n == name.as_ref()) {
            Some(i) => i,
            None => {
                self.var_names.push(name.into());
                self.var_names.len() - 1
            }
        }
    }

    /// Add an atom `relation(vars...)`; unseen variable names are
    /// declared automatically.
    pub fn atom<S: Into<String>>(mut self, relation: S, vars: &[&str]) -> Self {
        let vars = vars.iter().map(|&name| self.var_id(name)).collect();
        self.atoms.push(Atom {
            relation: relation.into(),
            vars,
        });
        self
    }

    /// [`atom`](Self::atom) over names the caller gives away (a parsed
    /// statement's): a variable's first use moves its name in, so
    /// lowering copies no string.
    pub fn atom_owned(mut self, relation: String, vars: Vec<String>) -> Self {
        let vars = vars.into_iter().map(|name| self.var_id(name)).collect();
        self.atoms.push(Atom { relation, vars });
        self
    }

    /// Finish. Panics on empty queries.
    pub fn build(self) -> ConjunctiveQuery {
        assert!(!self.atoms.is_empty(), "query must have at least one atom");
        ConjunctiveQuery {
            var_names: self.var_names,
            atoms: self.atoms,
        }
    }
}

/// The length-`l` path query `R_1(x0,x1) ⋈ ... ⋈ R_l(x_{l-1}, x_l)`.
pub fn path_query(l: usize) -> ConjunctiveQuery {
    assert!(l >= 1);
    let mut b = QueryBuilder::new();
    for i in 0..l {
        let r = format!("R{}", i + 1);
        let x0 = format!("x{i}");
        let x1 = format!("x{}", i + 1);
        b = b.atom(r, &[x0.as_str(), x1.as_str()]);
    }
    b.build()
}

/// The `l`-cycle query `R_1(x1,x2) ⋈ ... ⋈ R_l(x_l, x1)` (l >= 3). The
/// paper's running cyclic examples are the triangle (l = 3) and the
/// 4-cycle.
pub fn cycle_query(l: usize) -> ConjunctiveQuery {
    assert!(l >= 3);
    cycle_atoms(l).build()
}

fn cycle_atoms(l: usize) -> QueryBuilder {
    let mut b = QueryBuilder::new();
    for i in 0..l {
        let r = format!("R{}", i + 1);
        let x0 = format!("x{}", i + 1);
        let x1 = format!("x{}", (i + 1) % l + 1);
        b = b.atom(r, &[x0.as_str(), x1.as_str()]);
    }
    b
}

/// The `l`-cycle with the chord `R_{l+1}(x1,x3)` (l >= 4): the smallest
/// cyclic queries that are *not* simple cycles, so the planner sends
/// them down the general decomposition route.
pub fn chorded_cycle_query(l: usize) -> ConjunctiveQuery {
    assert!(l >= 4);
    (cycle_atoms(l).atom(format!("R{}", l + 1), &["x1", "x3"])).build()
}

/// The triangle query `R(A,B) ⋈ S(B,C) ⋈ T(C,A)` from §3.
pub fn triangle_query() -> ConjunctiveQuery {
    cycle_query(3)
}

/// The `l`-star query `R_1(x0,x1) ⋈ R_2(x0,x2) ⋈ ... ⋈ R_l(x0,x_l)`:
/// all relations share the central variable `x0`.
pub fn star_query(l: usize) -> ConjunctiveQuery {
    assert!(l >= 1);
    let mut b = QueryBuilder::new();
    for i in 0..l {
        let r = format!("R{}", i + 1);
        let xi = format!("x{}", i + 1);
        b = b.atom(r, &["x0", xi.as_str()]);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_declares_vars_once() {
        let q = QueryBuilder::new()
            .atom("R", &["a", "b"])
            .atom("S", &["b", "c"])
            .build();
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.num_atoms(), 2);
        assert_eq!(q.var("b"), Some(1));
        assert_eq!(q.shared_vars(0, 1), vec![1]);
    }

    #[test]
    fn path_query_shape() {
        let q = path_query(3);
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.num_vars(), 4);
        assert_eq!(q.to_string(), "R1(x0,x1) ⋈ R2(x1,x2) ⋈ R3(x2,x3)");
    }

    #[test]
    fn cycle_query_closes() {
        let q = cycle_query(4);
        assert_eq!(q.num_vars(), 4);
        let last = q.atom(3);
        assert_eq!(last.vars, vec![3, 0]);
    }

    #[test]
    fn star_query_shares_center() {
        let q = star_query(3);
        let center = q.var("x0").unwrap();
        for i in 0..3 {
            assert!(q.atom(i).uses(center));
        }
        assert_eq!(q.atoms_using(center).len(), 3);
    }

    #[test]
    fn repeated_variable_positions() {
        let q = QueryBuilder::new().atom("E", &["x", "x"]).build();
        assert_eq!(q.atom(0).positions_of(0), vec![0, 1]);
    }

    #[test]
    fn triangle_display() {
        assert_eq!(
            triangle_query().to_string(),
            "R1(x1,x2) ⋈ R2(x2,x3) ⋈ R3(x3,x1)"
        );
    }
}
