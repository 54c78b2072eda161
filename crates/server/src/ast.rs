//! The abstract syntax of the textual ranked-CQ language, plus its
//! canonical rendering and the lowering into `anyk_query`'s
//! [`ConjunctiveQuery`].
//!
//! The grammar (case-insensitive keywords, `;` optional):
//!
//! ```text
//! command := select | EXPLAIN select | EXPLAIN ANALYZE select
//!          | insert | load
//!          | NEXT count ON cursor | CLOSE cursor | STATS
//!          | TRACE count | TRACE SLOW
//! select  := SELECT atom (',' atom)* [RANK BY ranking] [LIMIT count]
//! insert  := INSERT INTO relation VALUES row (',' row)*
//! load    := LOAD relation FROM CSV string
//! row     := '(' literal (',' literal)* ')'
//! literal := ['-'] (int | float)        -- last cell of a row is the weight
//! atom    := relation '(' var (',' var)* ')'
//! ranking := sum | max | min | prod | lex
//! string  := '\'' ... '\''              -- escapes: \\ \' \n \r \t
//! ```
//!
//! Every [`Command`] renders back to canonical text via [`Display`](fmt::Display),
//! and `parse(render(cmd)) == cmd` — the round-trip the parser
//! proptests pin.

use anyk_engine::RankSpec;
use anyk_query::cq::{ConjunctiveQuery, QueryBuilder};
use anyk_storage::FloatBits;
use std::fmt;

/// One client command of the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Open a ranked query: plan, pull the first page, and (if answers
    /// remain) register a cursor.
    Select(SelectStmt),
    /// Plan only: respond with the rendered [`Plan`](anyk_engine::Plan),
    /// executing nothing.
    Explain(SelectStmt),
    /// Plan **and execute** to the page limit, reporting per-stage
    /// wall times, actual vs routed cardinalities, cache/index
    /// provenance, and merge fan-in — instead of the answers.
    ExplainAnalyze(SelectStmt),
    /// Append literal rows to a registered relation (the write path:
    /// rows land as an [`DeltaRelation`](anyk_storage::DeltaRelation)
    /// delta batch, dependent plans are invalidated, open streams keep
    /// their snapshot).
    Insert(InsertStmt),
    /// Append rows parsed from an inline CSV block (same wire semantics
    /// as `INSERT`, bulk-shaped).
    Load(LoadStmt),
    /// Pull up to `count` more answers from an open cursor.
    Next {
        /// Maximum number of answers to pull.
        count: usize,
        /// The cursor id a previous `SELECT` returned.
        cursor: u64,
    },
    /// Close a cursor, releasing its stream and admission slot.
    Close {
        /// The cursor id to close.
        cursor: u64,
    },
    /// Report service metrics (sessions, cursors, TTF, plan cache).
    Stats,
    /// Report the most recent `last` completed-query traces from the
    /// service's trace ring, newest first.
    Trace {
        /// How many traces to report (capped at the ring's capacity).
        last: usize,
    },
    /// Report the slow-query log (traces whose wall time crossed the
    /// service's threshold), newest first.
    TraceSlow,
}

/// The `SELECT` statement: a full conjunctive query (atoms over named
/// variables), a ranking, and an optional page limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectStmt {
    /// The query atoms, in canonical (serialization) order.
    pub atoms: Vec<AtomRef>,
    /// The ranking function (`RANK BY ...`; defaults to `sum`).
    pub rank: RankSpec,
    /// Page size for the first page (`LIMIT k`); `None` uses the
    /// service default.
    pub limit: Option<usize>,
}

/// A numeric literal of an `INSERT` row. The write path is numeric
/// only: symbols would need catalog interning mid-append, which the
/// engine's write path deliberately avoids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Literal {
    /// An integer cell.
    Int(i64),
    /// A float cell (total-ordered bits, so `Literal` stays `Eq`).
    Float(FloatBits),
}

impl Literal {
    /// The literal as `f64` — how the trailing weight cell is read.
    pub fn as_f64(self) -> f64 {
        match self {
            Literal::Int(i) => i as f64,
            Literal::Float(b) => b.get(),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(b) => {
                // `Display` for f64 renders 1.0 as "1"; force a marker
                // so the canonical text re-lexes as a float.
                let s = b.get().to_string();
                if s.contains(['.', 'e', 'E']) {
                    write!(f, "{s}")
                } else {
                    write!(f, "{s}.0")
                }
            }
        }
    }
}

/// The `INSERT INTO R VALUES (…),(…)` statement. Each row carries the
/// relation's attribute cells plus a trailing weight cell; the service
/// checks the count against the live catalog arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertStmt {
    /// The target relation name.
    pub relation: String,
    /// The rows, each `arity + 1` literals (attributes then weight).
    pub rows: Vec<Vec<Literal>>,
}

/// The `LOAD R FROM CSV '…'` statement: an inline CSV block (header
/// `attr1,…,attrN,weight`) appended as one delta batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadStmt {
    /// The target relation name.
    pub relation: String,
    /// The raw CSV text (unescaped), parsed by
    /// [`read_csv`](anyk_storage::read_csv).
    pub csv: String,
}

/// Escape a string for the wire's single-quoted literal form:
/// `\\ \' \n \r \t`.
pub(crate) fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\'' => out.push_str("\\'"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for InsertStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {} VALUES ", self.relation)?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "(")?;
            for (j, lit) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{lit}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for LoadStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LOAD {} FROM CSV '{}'",
            self.relation,
            escape_str(&self.csv)
        )
    }
}

/// One atom `R(x, y, ...)` of a `SELECT`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomRef {
    /// The relation name (resolved against the engine's catalog).
    pub relation: String,
    /// Variable names, one per column.
    pub vars: Vec<String>,
}

impl SelectStmt {
    /// Lower into the engine's query representation, moving the
    /// statement's names into it. Variables are declared in first-use
    /// order across the atoms, exactly like [`QueryBuilder::atom`] — so
    /// a query rendered by [`select_text`] lowers back to an equal
    /// [`ConjunctiveQuery`].
    pub fn into_cq(self) -> ConjunctiveQuery {
        (self.atoms.into_iter())
            .fold(QueryBuilder::new(), |b, atom| {
                b.atom_owned(atom.relation, atom.vars)
            })
            .build()
    }
}

impl fmt::Display for AtomRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.relation, self.vars.join(","))
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{atom}")?;
        }
        write!(f, " RANK BY {}", self.rank)?;
        if let Some(k) = self.limit {
            write!(f, " LIMIT {k}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Command {
    /// Canonical text: what [`parse`](crate::parse) round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Select(s) => write!(f, "{s};"),
            Command::Explain(s) => write!(f, "EXPLAIN {s};"),
            Command::ExplainAnalyze(s) => write!(f, "EXPLAIN ANALYZE {s};"),
            Command::Insert(s) => write!(f, "{s};"),
            Command::Load(s) => write!(f, "{s};"),
            Command::Next { count, cursor } => write!(f, "NEXT {count} ON {cursor};"),
            Command::Close { cursor } => write!(f, "CLOSE {cursor};"),
            Command::Stats => write!(f, "STATS;"),
            Command::Trace { last } => write!(f, "TRACE {last};"),
            Command::TraceSlow => write!(f, "TRACE SLOW;"),
        }
    }
}

/// Render a [`ConjunctiveQuery`] as the `SELECT` statement that lowers
/// back to it: `SELECT R(a,b), S(b,c) RANK BY sum;`. The inverse of
/// [`SelectStmt::into_cq`] for queries whose variables appear in
/// first-use order (everything [`QueryBuilder`] produces).
pub fn select_text(q: &ConjunctiveQuery, rank: RankSpec, limit: Option<usize>) -> String {
    let stmt = select_stmt(q, rank, limit);
    Command::Select(stmt).to_string()
}

/// The [`SelectStmt`] form of a [`ConjunctiveQuery`] (see
/// [`select_text`]).
pub fn select_stmt(q: &ConjunctiveQuery, rank: RankSpec, limit: Option<usize>) -> SelectStmt {
    SelectStmt {
        atoms: q
            .atoms()
            .iter()
            .map(|a| AtomRef {
                relation: a.relation.clone(),
                vars: a.vars.iter().map(|&v| q.var_name(v).to_string()).collect(),
            })
            .collect(),
        rank,
        limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::{path_query, triangle_query};

    #[test]
    fn rendering_is_canonical() {
        let stmt = SelectStmt {
            atoms: vec![
                AtomRef {
                    relation: "R".into(),
                    vars: vec!["x".into(), "y".into()],
                },
                AtomRef {
                    relation: "S".into(),
                    vars: vec!["y".into(), "z".into()],
                },
            ],
            rank: RankSpec::Sum,
            limit: Some(10),
        };
        assert_eq!(
            Command::Select(stmt.clone()).to_string(),
            "SELECT R(x,y), S(y,z) RANK BY sum LIMIT 10;"
        );
        assert_eq!(
            Command::Explain(stmt.clone()).to_string(),
            "EXPLAIN SELECT R(x,y), S(y,z) RANK BY sum LIMIT 10;"
        );
        assert_eq!(
            Command::ExplainAnalyze(stmt).to_string(),
            "EXPLAIN ANALYZE SELECT R(x,y), S(y,z) RANK BY sum LIMIT 10;"
        );
        assert_eq!(
            Command::Next {
                count: 5,
                cursor: 3
            }
            .to_string(),
            "NEXT 5 ON 3;"
        );
        assert_eq!(Command::Close { cursor: 3 }.to_string(), "CLOSE 3;");
        assert_eq!(Command::Stats.to_string(), "STATS;");
        assert_eq!(Command::Trace { last: 4 }.to_string(), "TRACE 4;");
        assert_eq!(Command::TraceSlow.to_string(), "TRACE SLOW;");
    }

    #[test]
    fn write_commands_render_canonically() {
        let insert = InsertStmt {
            relation: "R".into(),
            rows: vec![
                vec![
                    Literal::Int(1),
                    Literal::Int(2),
                    Literal::Float(FloatBits::new(0.5)),
                ],
                vec![
                    Literal::Int(-3),
                    Literal::Int(4),
                    Literal::Float(FloatBits::new(1.0)),
                ],
            ],
        };
        assert_eq!(
            Command::Insert(insert).to_string(),
            "INSERT INTO R VALUES (1,2,0.5),(-3,4,1.0);"
        );
        let load = LoadStmt {
            relation: "Edge".into(),
            csv: "a,b,weight\n1,2,0.5\n".into(),
        };
        assert_eq!(
            Command::Load(load).to_string(),
            "LOAD Edge FROM CSV 'a,b,weight\\n1,2,0.5\\n';"
        );
    }

    #[test]
    fn float_literals_always_carry_a_float_marker() {
        // 1.0 displays as "1" through f64's Display; the canonical
        // rendering must keep it lexing as a float.
        for v in [1.0, 0.5, -2.0, 1e300, 1e-7, 0.0] {
            let text = Literal::Float(FloatBits::new(v)).to_string();
            assert!(
                text.contains(['.', 'e', 'E']),
                "{v} rendered as `{text}` with no float marker"
            );
        }
    }

    #[test]
    fn select_text_lowers_back_to_the_same_query() {
        for q in [path_query(3), triangle_query()] {
            let text = select_text(&q, RankSpec::Max, None);
            let stmt = select_stmt(&q, RankSpec::Max, None);
            assert_eq!(stmt.into_cq(), q, "{text}");
        }
    }
}
