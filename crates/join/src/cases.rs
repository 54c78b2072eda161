//! The one shape every decomposed plan takes: a **list of acyclic
//! cases**, each an acyclic query over derived relations that knows
//! where its columns go in the original query's output.
//!
//! §3's answer to cyclic queries is a union of trees, each receiving a
//! subset of the input. A cycle's heavy/light split ([`crate::cycle`])
//! yields many cases with disjoint answer sets; a tree decomposition
//! ([`crate::decomposed`]) yields one. Boolean ([`cases_exist`]), batch
//! ([`cases_join`]) and ranked execution (`anyk_core::cyclic::Trees`)
//! all consume the list the same way.

use anyk_query::cq::{ConjunctiveQuery, VarId};
use anyk_query::join_tree::JoinTree;
use anyk_storage::{Relation, RelationBuilder, Schema, Value};

/// Where an original output variable's value comes from in a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOut {
    /// The variable is fixed to a constant in this case (heavy value).
    Fixed(Value),
    /// Read from the case query's variable.
    Var(VarId),
}

/// One acyclic instance of a union-of-trees plan.
#[derive(Debug)]
pub struct TreeCase {
    /// Human-readable label (`heavy-x1=v`, `light-light`, `ghd`, ...).
    pub label: String,
    /// The acyclic case query over derived relations.
    pub query: ConjunctiveQuery,
    /// A join tree for it.
    pub tree: JoinTree,
    /// Relations parallel to the case query's atoms. Weights are
    /// assigned so each original tuple's weight is counted exactly once
    /// per answer.
    pub relations: Vec<Relation>,
    /// One entry per output column of the original query, in its
    /// `VarId` order: where the case's answers put that column.
    pub out: Vec<CaseOut>,
}

/// Does any case have an answer? Each case costs one full reducer, and
/// the first non-empty one ends the search.
pub fn cases_exist(cases: Vec<TreeCase>) -> bool {
    (cases.into_iter())
        .any(|case| crate::boolean::boolean_acyclic(&case.query, &case.tree, case.relations))
}

/// Materialize the answers of every case (Yannakakis per case) under
/// `schema`, the original query's output columns. Weight = sum of each
/// answer's tuple weights.
pub fn cases_join(cases: Vec<TreeCase>, schema: Schema) -> Relation {
    let mut out = RelationBuilder::new(schema);
    for case in cases {
        let (q, tree) = (&case.query, &case.tree);
        let mut row = vec![Value::Int(0); q.num_vars()];
        let mut orow = vec![Value::Int(0); case.out.len()];
        crate::yannakakis::yannakakis_for_each(q, tree, case.relations, |rels, by_node| {
            let w = crate::yannakakis::assemble_answer(q, tree, rels, by_node, &mut row);
            for (o, from) in orow.iter_mut().zip(&case.out) {
                *o = match *from {
                    CaseOut::Fixed(v) => v,
                    CaseOut::Var(cv) => row[cv],
                };
            }
            out.push(&orow, w);
        });
    }
    out.finish()
}
