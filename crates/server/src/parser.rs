//! A hand-rolled recursive-descent parser for the ranked-CQ language.
//!
//! Lexing and parsing are one pass over the input — the parser pulls
//! tokens that borrow it, one at a time — with byte positions carried
//! into every [`ParseError`], so a malformed command reports *where*
//! and *what was expected* — typed, never a panic.

use crate::ast::{escape_str, AtomRef, Command, InsertStmt, Literal, LoadStmt, SelectStmt};
use anyk_engine::RankSpec;
use anyk_storage::FloatBits;
use std::fmt;

/// Why a command failed to parse. Every variant carries the byte
/// offset of the offending token, so clients can point at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A character outside the language's alphabet.
    UnexpectedChar {
        /// Byte offset in the input.
        pos: usize,
        /// The offending character.
        ch: char,
    },
    /// A well-formed token in the wrong place.
    UnexpectedToken {
        /// Byte offset of the token.
        pos: usize,
        /// What the grammar needed here.
        expected: &'static str,
        /// What was found instead (rendered token).
        found: String,
    },
    /// The input ended mid-command.
    UnexpectedEnd {
        /// What the grammar needed next.
        expected: &'static str,
    },
    /// `RANK BY <name>` with a name that is not a ranking function.
    UnknownRanking {
        /// Byte offset of the name.
        pos: usize,
        /// The unrecognized name.
        name: String,
    },
    /// A count (`LIMIT k`, `NEXT k`) of zero — a page of nothing.
    ZeroCount {
        /// Byte offset of the literal.
        pos: usize,
        /// Which clause carried it.
        clause: &'static str,
    },
    /// A numeric literal too large for its slot.
    NumberOverflow {
        /// Byte offset of the literal.
        pos: usize,
    },
    /// Extra tokens after a complete command.
    TrailingInput {
        /// Byte offset of the first extra token.
        pos: usize,
        /// The first extra token (rendered).
        found: String,
    },
    /// A single-quoted string literal with no closing quote.
    UnterminatedString {
        /// Byte offset of the opening quote.
        pos: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedChar { pos, ch } => {
                write!(f, "unexpected character {ch:?} at byte {pos}")
            }
            ParseError::UnexpectedToken {
                pos,
                expected,
                found,
            } => write!(f, "expected {expected} at byte {pos}, found `{found}`"),
            ParseError::UnexpectedEnd { expected } => {
                write!(f, "input ended while expecting {expected}")
            }
            ParseError::UnknownRanking { pos, name } => write!(
                f,
                "unknown ranking `{name}` at byte {pos} (try sum, max, min, prod, lex)"
            ),
            ParseError::ZeroCount { pos, clause } => {
                write!(f, "{clause} must be at least 1 (byte {pos})")
            }
            ParseError::NumberOverflow { pos } => {
                write!(f, "numeric literal at byte {pos} is too large")
            }
            ParseError::TrailingInput { pos, found } => {
                write!(f, "trailing input `{found}` at byte {pos}")
            }
            ParseError::UnterminatedString { pos } => {
                write!(f, "string literal starting at byte {pos} is unterminated")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// The language's keywords — reserved, case-insensitive: they cannot
/// name relations or variables (reserving them keeps rendering and
/// re-parsing unambiguous).
pub const KEYWORDS: [&str; 18] = [
    "SELECT", "RANK", "BY", "LIMIT", "NEXT", "ON", "CLOSE", "EXPLAIN", "STATS", "ANALYZE", "TRACE",
    "SLOW", "INSERT", "INTO", "VALUES", "LOAD", "FROM", "CSV",
];

/// A token. Words borrow the input: a command that carries no name
/// (`NEXT`, `CLOSE`, `STATS`, `TRACE`) is parsed without allocating,
/// and a `SELECT` allocates only what its [`SelectStmt`] owns.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok<'a> {
    /// Identifier or keyword (original spelling).
    Word(&'a str),
    /// Unsigned integer literal.
    Int(u64),
    /// Non-negative float literal (a `.` or exponent in the lexeme;
    /// signs are a separate [`Tok::Minus`]).
    Float(FloatBits),
    /// Single-quoted string literal (unescaped content).
    Str(String),
    Minus,
    LParen,
    RParen,
    Comma,
    Semi,
}

impl Tok<'_> {
    /// The token as error messages show it.
    fn render(&self) -> String {
        match self {
            Tok::Word(w) => (*w).to_string(),
            Tok::Int(n) => n.to_string(),
            Tok::Float(b) => b.get().to_string(),
            Tok::Str(s) => format!("'{}'", escape_str(s)),
            Tok::Minus => "-".into(),
            Tok::LParen => "(".into(),
            Tok::RParen => ")".into(),
            Tok::Comma => ",".into(),
            Tok::Semi => ";".into(),
        }
    }

    /// Keyword check, case-insensitive (`kw` is uppercase).
    fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn is_any_keyword(&self) -> bool {
        KEYWORDS.iter().any(|k| self.is_kw(k))
    }
}

/// The lexer: tokens on demand, each with its byte offset.
struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next unread character.
    at: usize,
    /// The error this lexer stopped at. Lexical errors outrank
    /// syntactic ones wherever they sit in the input (a command is
    /// well-lexed or it is not), so a failed parse asks for it
    /// ([`Lexer::first_error`]).
    failed: Option<ParseError>,
}

impl<'a> Lexer<'a> {
    fn peek_char(&self) -> Option<char> {
        self.input[self.at..].chars().next()
    }

    /// Step over ASCII digits.
    fn digits(&mut self) {
        let rest = &self.input.as_bytes()[self.at..];
        self.at += rest.iter().take_while(|b| b.is_ascii_digit()).count();
    }

    /// Is the byte `ahead` of the cursor an ASCII digit?
    fn digit_at(&self, ahead: usize) -> bool {
        (self.input.as_bytes().get(self.at + ahead)).is_some_and(u8::is_ascii_digit)
    }

    /// How many `what` bytes lie before the next `stop` byte (or the
    /// end): how many commas an atom's variable list holds, so the
    /// parser sizes a vector once.
    fn count_before(&self, what: u8, stop: u8) -> usize {
        let rest = &self.input.as_bytes()[self.at..];
        let until = rest.iter().position(|&b| b == stop).unwrap_or(rest.len());
        rest[..until].iter().filter(|&&b| b == what).count()
    }

    /// The next token and its byte offset; `None` at the end of input.
    fn next_tok(&mut self) -> Result<Option<(usize, Tok<'a>)>, ParseError> {
        let tok = self.lex();
        if let Err(e) = &tok {
            self.failed = Some(e.clone());
        }
        tok
    }

    /// The first lexical error of the input, given that a parse stopped
    /// here: the one the lexer already hit, else the first one in what
    /// is left unread.
    fn first_error(&mut self) -> Option<ParseError> {
        while self.failed.is_none() && matches!(self.next_tok(), Ok(Some(_))) {}
        self.failed.take()
    }

    fn lex(&mut self) -> Result<Option<(usize, Tok<'a>)>, ParseError> {
        while self.peek_char().is_some_and(char::is_whitespace) {
            self.at += self.peek_char().map_or(0, char::len_utf8);
        }
        let pos = self.at;
        let Some(ch) = self.peek_char() else {
            return Ok(None);
        };
        let punct = match ch {
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            ',' => Some(Tok::Comma),
            ';' => Some(Tok::Semi),
            '-' => Some(Tok::Minus),
            _ => None,
        };
        let tok = if let Some(tok) = punct {
            self.at += 1;
            tok
        } else if ch == '\'' {
            self.at += 1;
            Tok::Str(self.string(pos)?)
        } else if ch.is_ascii_digit() {
            self.number(pos)?
        } else if ch.is_ascii_alphabetic() || ch == '_' {
            let rest = &self.input.as_bytes()[pos..];
            let len = (rest.iter())
                .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                .count();
            self.at += len;
            Tok::Word(&self.input[pos..pos + len])
        } else {
            return Err(ParseError::UnexpectedChar { pos, ch });
        };
        Ok(Some((pos, tok)))
    }

    /// The rest of a string literal whose opening quote sat at `pos`.
    fn string(&mut self, pos: usize) -> Result<String, ParseError> {
        let mut s = String::new();
        let mut chars = self.input[self.at..].char_indices();
        let unterminated = ParseError::UnterminatedString { pos };
        loop {
            let (off, c) = chars.next().ok_or(unterminated.clone())?;
            match c {
                '\'' => {
                    self.at += off + 1;
                    return Ok(s);
                }
                '\\' => match chars.next().ok_or(unterminated.clone())?.1 {
                    '\\' => s.push('\\'),
                    '\'' => s.push('\''),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    other => {
                        return Err(ParseError::UnexpectedChar {
                            pos: self.at + off,
                            ch: other,
                        })
                    }
                },
                c => s.push(c),
            }
        }
    }

    /// A numeric literal starting at `pos` (a digit).
    fn number(&mut self, pos: usize) -> Result<Tok<'a>, ParseError> {
        let bytes = self.input.as_bytes();
        let mut is_float = false;
        self.digits();
        // A fraction only if `.` is followed by a digit (so `R(x).`
        // still reports the stray dot, not a number).
        if bytes.get(self.at) == Some(&b'.') && self.digit_at(1) {
            is_float = true;
            self.at += 1;
            self.digits();
        }
        // An exponent only if `e`/`E` is followed by digits
        // (optionally signed) — identifiers like `3x` never lex, but
        // `SELECT e(x,y)` must keep `e` a word.
        if matches!(bytes.get(self.at), Some(b'e' | b'E')) {
            let signed = matches!(bytes.get(self.at + 1), Some(b'+' | b'-'));
            if self.digit_at(1 + usize::from(signed)) {
                is_float = true;
                self.at += 1 + usize::from(signed);
                self.digits();
            }
        }
        let lexeme = &self.input[pos..self.at];
        let tok = if is_float {
            let finite = |v: &f64| v.is_finite();
            (lexeme.parse().ok().filter(finite)).map(|v| Tok::Float(FloatBits::new(v)))
        } else {
            lexeme.parse().ok().map(Tok::Int)
        };
        tok.ok_or(ParseError::NumberOverflow { pos })
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The token [`Parser::peek`] read ahead (`Some(None)`: the end).
    peeked: Option<Option<(usize, Tok<'a>)>>,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Result<Option<&(usize, Tok<'a>)>, ParseError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lexer.next_tok()?);
        }
        Ok(self.peeked.as_ref().and_then(Option::as_ref))
    }

    /// Is the next token `want`? (Not a keyword test: see
    /// [`Parser::peek_kw`].)
    fn peek_is(&mut self, want: &Tok<'_>) -> Result<bool, ParseError> {
        Ok(self.peek()?.is_some_and(|(_, t)| t == want))
    }

    fn peek_kw(&mut self, kw: &str) -> Result<bool, ParseError> {
        Ok(self.peek()?.is_some_and(|(_, t)| t.is_kw(kw)))
    }

    /// Step over the token just peeked.
    fn skip(&mut self) {
        self.peeked = None;
    }

    fn next(&mut self, expected: &'static str) -> Result<(usize, Tok<'a>), ParseError> {
        self.peek()?;
        (self.peeked.take().flatten()).ok_or(ParseError::UnexpectedEnd { expected })
    }

    fn expect_tok(&mut self, want: &Tok<'_>, expected: &'static str) -> Result<(), ParseError> {
        let (pos, t) = self.next(expected)?;
        if &t == want {
            Ok(())
        } else {
            Err(unexpected(pos, expected, &t))
        }
    }

    fn keyword(&mut self, kw: &'static str) -> Result<(), ParseError> {
        let (pos, t) = self.next(kw)?;
        if t.is_kw(kw) {
            Ok(())
        } else {
            Err(unexpected(pos, kw, &t))
        }
    }

    /// An identifier that is not a reserved keyword.
    fn ident(&mut self, expected: &'static str) -> Result<String, ParseError> {
        let (pos, t) = self.next(expected)?;
        match t {
            Tok::Word(w) if !t.is_any_keyword() => Ok(w.to_string()),
            other => Err(unexpected(pos, expected, &other)),
        }
    }

    fn count(&mut self, clause: &'static str) -> Result<usize, ParseError> {
        let (pos, t) = self.next(clause)?;
        match t {
            Tok::Int(0) => Err(ParseError::ZeroCount { pos, clause }),
            Tok::Int(n) => usize::try_from(n).map_err(|_| ParseError::NumberOverflow { pos }),
            other => Err(unexpected(pos, clause, &other)),
        }
    }

    fn cursor_id(&mut self) -> Result<u64, ParseError> {
        let (pos, t) = self.next("cursor id")?;
        match t {
            Tok::Int(n) => Ok(n),
            other => Err(unexpected(pos, "cursor id", &other)),
        }
    }

    /// Optional trailing `;`, then end-of-input.
    fn finish(&mut self) -> Result<(), ParseError> {
        if self.peek_is(&Tok::Semi)? {
            self.skip();
        }
        match self.peek()? {
            None => Ok(()),
            Some((pos, t)) => Err(ParseError::TrailingInput {
                pos: *pos,
                found: t.render(),
            }),
        }
    }

    fn atom(&mut self) -> Result<AtomRef, ParseError> {
        let relation = self.ident("relation name")?;
        self.expect_tok(&Tok::LParen, "`(`")?;
        let mut vars = Vec::with_capacity(1 + self.lexer.count_before(b',', b')'));
        vars.push(self.ident("variable name")?);
        loop {
            let (pos, t) = self.next("`,` or `)`")?;
            match t {
                Tok::Comma => vars.push(self.ident("variable name")?),
                Tok::RParen => break,
                other => return Err(unexpected(pos, "`,` or `)`", &other)),
            }
        }
        Ok(AtomRef { relation, vars })
    }

    fn select(&mut self) -> Result<SelectStmt, ParseError> {
        self.keyword("SELECT")?;
        // One `(` per atom: nothing else in a SELECT is parenthesized.
        let mut atoms = Vec::with_capacity(self.lexer.count_before(b'(', b';').max(1));
        atoms.push(self.atom()?);
        while self.peek_is(&Tok::Comma)? {
            self.skip();
            atoms.push(self.atom()?);
        }
        let mut rank = RankSpec::default();
        if self.peek_kw("RANK")? {
            self.skip();
            self.keyword("BY")?;
            let (pos, t) = self.next("ranking name")?;
            let Tok::Word(name) = t else {
                return Err(unexpected(pos, "ranking name", &t));
            };
            rank = RankSpec::parse(name).ok_or_else(|| ParseError::UnknownRanking {
                pos,
                name: name.to_string(),
            })?;
        }
        let mut limit = None;
        if self.peek_kw("LIMIT")? {
            self.skip();
            limit = Some(self.count("LIMIT")?);
        }
        Ok(SelectStmt { atoms, rank, limit })
    }

    /// A signed numeric literal: `['-'] (int | float)`.
    fn literal(&mut self) -> Result<Literal, ParseError> {
        let neg = self.peek_is(&Tok::Minus)?;
        if neg {
            self.skip();
        }
        let (pos, t) = self.next("numeric literal")?;
        match t {
            Tok::Int(n) => {
                let v = i128::from(n);
                let v = if neg { -v } else { v };
                i64::try_from(v)
                    .map(Literal::Int)
                    .map_err(|_| ParseError::NumberOverflow { pos })
            }
            Tok::Float(b) => {
                let v = if neg { -b.get() } else { b.get() };
                Ok(Literal::Float(FloatBits::new(v)))
            }
            other => Err(unexpected(pos, "numeric literal", &other)),
        }
    }

    /// One `(lit, lit, ...)` row of an `INSERT`.
    fn row(&mut self) -> Result<Vec<Literal>, ParseError> {
        self.expect_tok(&Tok::LParen, "`(`")?;
        let mut cells = vec![self.literal()?];
        loop {
            let (pos, t) = self.next("`,` or `)`")?;
            match t {
                Tok::Comma => cells.push(self.literal()?),
                Tok::RParen => break,
                other => return Err(unexpected(pos, "`,` or `)`", &other)),
            }
        }
        Ok(cells)
    }

    fn insert(&mut self) -> Result<InsertStmt, ParseError> {
        self.keyword("INSERT")?;
        self.keyword("INTO")?;
        let relation = self.ident("relation name")?;
        self.keyword("VALUES")?;
        let mut rows = vec![self.row()?];
        while self.peek_is(&Tok::Comma)? {
            self.skip();
            rows.push(self.row()?);
        }
        Ok(InsertStmt { relation, rows })
    }

    fn load(&mut self) -> Result<LoadStmt, ParseError> {
        self.keyword("LOAD")?;
        let relation = self.ident("relation name")?;
        self.keyword("FROM")?;
        self.keyword("CSV")?;
        let (pos, t) = self.next("CSV string literal")?;
        match t {
            Tok::Str(csv) => Ok(LoadStmt { relation, csv }),
            other => Err(unexpected(pos, "CSV string literal", &other)),
        }
    }

    fn command(&mut self) -> Result<Command, ParseError> {
        let (pos, head) = self.peek()?.cloned().ok_or(ParseError::UnexpectedEnd {
            expected: "a command",
        })?;
        let cmd = if head.is_kw("SELECT") {
            Command::Select(self.select()?)
        } else if head.is_kw("EXPLAIN") {
            self.skip();
            if self.peek_kw("ANALYZE")? {
                self.skip();
                Command::ExplainAnalyze(self.select()?)
            } else {
                Command::Explain(self.select()?)
            }
        } else if head.is_kw("INSERT") {
            Command::Insert(self.insert()?)
        } else if head.is_kw("LOAD") {
            Command::Load(self.load()?)
        } else if head.is_kw("NEXT") {
            self.skip();
            let count = self.count("NEXT")?;
            self.keyword("ON")?;
            let cursor = self.cursor_id()?;
            Command::Next { count, cursor }
        } else if head.is_kw("CLOSE") {
            self.skip();
            let cursor = self.cursor_id()?;
            Command::Close { cursor }
        } else if head.is_kw("STATS") {
            self.skip();
            Command::Stats
        } else if head.is_kw("TRACE") {
            self.skip();
            if self.peek_kw("SLOW")? {
                self.skip();
                Command::TraceSlow
            } else {
                Command::Trace {
                    last: self.count("TRACE")?,
                }
            }
        } else {
            let expected = "SELECT, INSERT, LOAD, EXPLAIN, NEXT, CLOSE, STATS, or TRACE";
            return Err(unexpected(pos, expected, &head));
        };
        self.finish()?;
        Ok(cmd)
    }
}

/// A well-formed token in the wrong place.
fn unexpected(pos: usize, expected: &'static str, found: &Tok<'_>) -> ParseError {
    ParseError::UnexpectedToken {
        pos,
        expected,
        found: found.render(),
    }
}

/// Parse one command of the protocol. Typed errors, no panics; the
/// trailing `;` is optional.
pub fn parse(input: &str) -> Result<Command, ParseError> {
    let mut p = Parser {
        lexer: Lexer {
            input,
            at: 0,
            failed: None,
        },
        peeked: None,
    };
    p.command()
        .map_err(|syntactic| p.lexer.first_error().unwrap_or(syntactic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::select_stmt;
    use anyk_query::cq::{cycle_query, path_query, star_query, triangle_query, QueryBuilder};
    use proptest::prelude::*;

    fn sel(input: &str) -> SelectStmt {
        match parse(input).expect("parses") {
            Command::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn select_with_all_clauses() {
        let s = sel("SELECT R(x,y), S(y,z) RANK BY max LIMIT 10;");
        assert_eq!(s.atoms.len(), 2);
        assert_eq!(s.atoms[1].relation, "S");
        assert_eq!(s.atoms[1].vars, vec!["y".to_string(), "z".to_string()]);
        assert_eq!(s.rank, RankSpec::Max);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn defaults_and_case_insensitivity() {
        let s = sel("select R(a,b)");
        assert_eq!(s.rank, RankSpec::Sum);
        assert_eq!(s.limit, None);
        let s = sel("SeLeCt R(a,b) rank by PROD limit 3");
        assert_eq!(s.rank, RankSpec::Prod);
        assert_eq!(s.limit, Some(3));
    }

    #[test]
    fn cursor_commands() {
        assert_eq!(
            parse("NEXT 5 ON 12;"),
            Ok(Command::Next {
                count: 5,
                cursor: 12
            })
        );
        assert_eq!(parse("close 0"), Ok(Command::Close { cursor: 0 }));
        assert_eq!(parse("STATS"), Ok(Command::Stats));
        assert!(matches!(
            parse("EXPLAIN SELECT R(x,y)"),
            Ok(Command::Explain(_))
        ));
    }

    #[test]
    fn observability_commands() {
        assert!(matches!(
            parse("EXPLAIN ANALYZE SELECT R(x,y) RANK BY max LIMIT 5;"),
            Ok(Command::ExplainAnalyze(_))
        ));
        // ANALYZE binds to the EXPLAIN head, never to a bare SELECT.
        assert!(parse("ANALYZE SELECT R(x,y)").is_err());
        assert_eq!(parse("TRACE 8;"), Ok(Command::Trace { last: 8 }));
        assert_eq!(parse("trace slow"), Ok(Command::TraceSlow));
        assert_eq!(
            parse("TRACE 0"),
            Err(ParseError::ZeroCount {
                pos: 6,
                clause: "TRACE"
            })
        );
        // Keywords stay reserved: TRACE cannot name a relation.
        assert!(parse("SELECT trace(x,y)").is_err());
    }

    #[test]
    fn typed_errors_point_at_the_problem() {
        assert_eq!(
            parse("SELECT R(x,y) RANK BY median"),
            Err(ParseError::UnknownRanking {
                pos: 22,
                name: "median".into()
            })
        );
        assert_eq!(
            parse("NEXT 0 ON 1"),
            Err(ParseError::ZeroCount {
                pos: 5,
                clause: "NEXT"
            })
        );
        assert_eq!(
            parse("SELECT R(x,y) LIMIT 0"),
            Err(ParseError::ZeroCount {
                pos: 20,
                clause: "LIMIT"
            })
        );
        assert!(matches!(
            parse("SELECT R(x,"),
            Err(ParseError::UnexpectedEnd { .. })
        ));
        assert!(matches!(
            parse("SELECT R(x,y) garbage"),
            Err(ParseError::UnexpectedToken { .. }) | Err(ParseError::TrailingInput { .. })
        ));
        assert!(matches!(
            parse("DROP TABLE users"),
            Err(ParseError::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse("SELECT R(x¶y)"),
            Err(ParseError::UnexpectedChar { .. })
        ));
        assert!(matches!(
            parse("NEXT 99999999999999999999 ON 1"),
            Err(ParseError::NumberOverflow { .. })
        ));
        // Keywords are reserved: they cannot name relations/variables.
        assert!(matches!(
            parse("SELECT limit(x,y)"),
            Err(ParseError::UnexpectedToken { .. })
        ));
    }

    /// Sixty-six malformed commands and the error each one got from
    /// the parser that lexed the whole input into owned tokens first
    /// (recorded at bcd4253, `Debug` form: variant, byte position,
    /// rendered token). The borrowing lexer hands tokens out one at a
    /// time and must still report the same error — in particular a
    /// lexical error anywhere in the input outranks a syntax error
    /// before it (the last six). `ERR parse:` replies are rendered from
    /// these fields, so they are byte-identical too.
    #[test]
    fn malformed_commands_report_the_errors_they_always_did() {
        let golden: &[(&str, &str)] = &[
            ("", r#"UnexpectedEnd { expected: "a command" }"#),
            ("   ", r#"UnexpectedEnd { expected: "a command" }"#),
            (
                "DROP TABLE users",
                r#"UnexpectedToken { pos: 0, expected: "SELECT, INSERT, LOAD, EXPLAIN, NEXT, CLOSE, STATS, or TRACE", found: "DROP" }"#,
            ),
            ("SELECT", r#"UnexpectedEnd { expected: "relation name" }"#),
            ("SELECT R", r#"UnexpectedEnd { expected: "`(`" }"#),
            (
                "SELECT R(",
                r#"UnexpectedEnd { expected: "variable name" }"#,
            ),
            ("SELECT R(x", r#"UnexpectedEnd { expected: "`,` or `)`" }"#),
            (
                "SELECT R(x,",
                r#"UnexpectedEnd { expected: "variable name" }"#,
            ),
            (
                "SELECT R(x,y",
                r#"UnexpectedEnd { expected: "`,` or `)`" }"#,
            ),
            (
                "SELECT R(x,y) garbage",
                r#"TrailingInput { pos: 14, found: "garbage" }"#,
            ),
            ("SELECT R(x,y) RANK", r#"UnexpectedEnd { expected: "BY" }"#),
            (
                "SELECT R(x,y) RANK BY",
                r#"UnexpectedEnd { expected: "ranking name" }"#,
            ),
            (
                "SELECT R(x,y) RANK BY median",
                r#"UnknownRanking { pos: 22, name: "median" }"#,
            ),
            (
                "SELECT R(x,y) RANK BY 5",
                r#"UnexpectedToken { pos: 22, expected: "ranking name", found: "5" }"#,
            ),
            (
                "SELECT R(x,y) RANK BY 'sum'",
                r#"UnexpectedToken { pos: 22, expected: "ranking name", found: "'sum'" }"#,
            ),
            (
                "SELECT R(x,y) LIMIT",
                r#"UnexpectedEnd { expected: "LIMIT" }"#,
            ),
            (
                "SELECT R(x,y) LIMIT 0",
                r#"ZeroCount { pos: 20, clause: "LIMIT" }"#,
            ),
            (
                "SELECT R(x,y) LIMIT x",
                r#"UnexpectedToken { pos: 20, expected: "LIMIT", found: "x" }"#,
            ),
            (
                "SELECT R(x,y) LIMIT 3.",
                "UnexpectedChar { pos: 21, ch: '.' }",
            ),
            (
                "SELECT R(x,y) LIMIT 99999999999999999999",
                "NumberOverflow { pos: 20 }",
            ),
            (
                "SELECT R(x,y) LIMIT 10 ; ;",
                r#"TrailingInput { pos: 25, found: ";" }"#,
            ),
            ("SELECT R(x¶y)", "UnexpectedChar { pos: 10, ch: '¶' }"),
            (
                "SELECT limit(x,y)",
                r#"UnexpectedToken { pos: 7, expected: "relation name", found: "limit" }"#,
            ),
            (
                "SELECT R(select,y)",
                r#"UnexpectedToken { pos: 9, expected: "variable name", found: "select" }"#,
            ),
            (
                "SELECT R(x,y),",
                r#"UnexpectedEnd { expected: "relation name" }"#,
            ),
            (
                "SELECT R(x y)",
                r#"UnexpectedToken { pos: 11, expected: "`,` or `)`", found: "y" }"#,
            ),
            (
                "SELECT 5(x)",
                r#"UnexpectedToken { pos: 7, expected: "relation name", found: "5" }"#,
            ),
            ("NEXT", r#"UnexpectedEnd { expected: "NEXT" }"#),
            ("NEXT 0 ON 1", r#"ZeroCount { pos: 5, clause: "NEXT" }"#),
            ("NEXT 5", r#"UnexpectedEnd { expected: "ON" }"#),
            ("NEXT 5 ON", r#"UnexpectedEnd { expected: "cursor id" }"#),
            (
                "NEXT 5 ON x",
                r#"UnexpectedToken { pos: 10, expected: "cursor id", found: "x" }"#,
            ),
            (
                "NEXT 1.5 ON 0",
                r#"UnexpectedToken { pos: 5, expected: "NEXT", found: "1.5" }"#,
            ),
            (
                "NEXT -1 ON 0",
                r#"UnexpectedToken { pos: 5, expected: "NEXT", found: "-" }"#,
            ),
            (
                "NEXT 5 ON 1 extra",
                r#"TrailingInput { pos: 12, found: "extra" }"#,
            ),
            ("CLOSE", r#"UnexpectedEnd { expected: "cursor id" }"#),
            (
                "CLOSE x",
                r#"UnexpectedToken { pos: 6, expected: "cursor id", found: "x" }"#,
            ),
            ("CLOSE 1;;", r#"TrailingInput { pos: 8, found: ";" }"#),
            ("TRACE", r#"UnexpectedEnd { expected: "TRACE" }"#),
            ("TRACE 0", r#"ZeroCount { pos: 6, clause: "TRACE" }"#),
            (
                "TRACE fast",
                r#"UnexpectedToken { pos: 6, expected: "TRACE", found: "fast" }"#,
            ),
            ("STATS now", r#"TrailingInput { pos: 6, found: "now" }"#),
            ("EXPLAIN", r#"UnexpectedEnd { expected: "SELECT" }"#),
            ("EXPLAIN ANALYZE", r#"UnexpectedEnd { expected: "SELECT" }"#),
            (
                "ANALYZE SELECT R(x,y)",
                r#"UnexpectedToken { pos: 0, expected: "SELECT, INSERT, LOAD, EXPLAIN, NEXT, CLOSE, STATS, or TRACE", found: "ANALYZE" }"#,
            ),
            (
                "INSERT INTO R VALUES",
                r#"UnexpectedEnd { expected: "`(`" }"#,
            ),
            (
                "INSERT INTO R VALUES (1,'x',0.5)",
                r#"UnexpectedToken { pos: 24, expected: "numeric literal", found: "'x'" }"#,
            ),
            (
                "INSERT INTO R VALUES (9223372036854775808,1,0.5)",
                "NumberOverflow { pos: 22 }",
            ),
            (
                "INSERT INTO R VALUES (1e999,1,0.5)",
                "NumberOverflow { pos: 22 }",
            ),
            (
                "INSERT INTO values VALUES (1,2,0.5)",
                r#"UnexpectedToken { pos: 12, expected: "relation name", found: "values" }"#,
            ),
            (
                "INSERT INTO R VALUES (1,2,0.5",
                r#"UnexpectedEnd { expected: "`,` or `)`" }"#,
            ),
            (
                "INSERT INTO R VALUES (1,,2)",
                r#"UnexpectedToken { pos: 24, expected: "numeric literal", found: "," }"#,
            ),
            (
                "INSERT R VALUES (1)",
                r#"UnexpectedToken { pos: 7, expected: "INTO", found: "R" }"#,
            ),
            ("LOAD R FROM CSV 'a,b", "UnterminatedString { pos: 16 }"),
            (
                r#"LOAD R FROM CSV 'bad \q escape'"#,
                "UnexpectedChar { pos: 21, ch: 'q' }",
            ),
            (
                r#"LOAD R FROM CSV 'tail\"#,
                "UnterminatedString { pos: 16 }",
            ),
            (
                "LOAD R FROM CSV 5",
                r#"UnexpectedToken { pos: 16, expected: "CSV string literal", found: "5" }"#,
            ),
            (
                "LOAD R CSV 'x'",
                r#"UnexpectedToken { pos: 7, expected: "FROM", found: "CSV" }"#,
            ),
            (
                "-",
                r#"UnexpectedToken { pos: 0, expected: "SELECT, INSERT, LOAD, EXPLAIN, NEXT, CLOSE, STATS, or TRACE", found: "-" }"#,
            ),
            ("'unterminated", "UnterminatedString { pos: 0 }"),
            (
                "SELECT R(x,y) garbage ¶",
                "UnexpectedChar { pos: 22, ch: '¶' }",
            ),
            ("NEXT 0 ON 1 'open", "UnterminatedString { pos: 12 }"),
            ("DROP 99999999999999999999", "NumberOverflow { pos: 5 }"),
            (
                "INSERT INTO R VALUES (9223372036854775808,1,0.5) ¶",
                "UnexpectedChar { pos: 49, ch: '¶' }",
            ),
            (
                "SELECT R(x,y) RANK BY median ?",
                "UnexpectedChar { pos: 29, ch: '?' }",
            ),
            ("CLOSE x 1e999", "NumberOverflow { pos: 8 }"),
        ];
        assert!(golden.len() >= 30);
        for (input, want) in golden {
            let got = parse(input).expect_err(input);
            assert_eq!(format!("{got:?}"), *want, "`{input}`");
        }
    }

    #[test]
    fn insert_parses_values_and_signs() {
        let cmd = parse("INSERT INTO R VALUES (1,2,0.5),(-3,4,1.0);").expect("parses");
        let Command::Insert(s) = cmd else {
            panic!("expected INSERT")
        };
        assert_eq!(s.relation, "R");
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0][0], Literal::Int(1));
        assert_eq!(s.rows[0][2], Literal::Float(FloatBits::new(0.5)));
        assert_eq!(s.rows[1][0], Literal::Int(-3));
        assert_eq!(s.rows[1][2], Literal::Float(FloatBits::new(1.0)));
        // Case-insensitive keywords, optional semicolon, exponents.
        let cmd = parse("insert into Edge values (7, 8, 1e-3)").expect("parses");
        let Command::Insert(s) = cmd else {
            panic!("expected INSERT")
        };
        assert_eq!(s.rows[0][2], Literal::Float(FloatBits::new(1e-3)));
    }

    #[test]
    fn load_parses_the_escaped_csv_block() {
        let cmd = parse("LOAD R FROM CSV 'a,b,weight\\n1,2,0.5\\n';").expect("parses");
        let Command::Load(s) = cmd else {
            panic!("expected LOAD")
        };
        assert_eq!(s.relation, "R");
        assert_eq!(s.csv, "a,b,weight\n1,2,0.5\n");
        // All the escapes unescape.
        let cmd = parse("LOAD R FROM CSV '\\\\ \\' \\n \\r \\t'").expect("parses");
        let Command::Load(s) = cmd else {
            panic!("expected LOAD")
        };
        assert_eq!(s.csv, "\\ ' \n \r \t");
    }

    #[test]
    fn write_command_typed_errors() {
        assert_eq!(
            parse("LOAD R FROM CSV 'a,b"),
            Err(ParseError::UnterminatedString { pos: 16 })
        );
        // Unknown escape points at the backslash.
        assert!(matches!(
            parse("LOAD R FROM CSV 'bad \\q escape'"),
            Err(ParseError::UnexpectedChar { ch: 'q', .. })
        ));
        // Keywords stay reserved on the write path too.
        assert!(matches!(
            parse("INSERT INTO values VALUES (1,2,0.5)"),
            Err(ParseError::UnexpectedToken { .. })
        ));
        // A string where a literal belongs is a typed error.
        assert!(matches!(
            parse("INSERT INTO R VALUES (1,'x',0.5)"),
            Err(ParseError::UnexpectedToken {
                expected: "numeric literal",
                ..
            })
        ));
        // i64 overflow on a negated literal.
        assert!(matches!(
            parse("INSERT INTO R VALUES (9223372036854775808,1,0.5)"),
            Err(ParseError::NumberOverflow { .. })
        ));
        assert_eq!(
            parse("INSERT INTO R VALUES (-9223372036854775808,1,0.5)")
                .map(|c| matches!(c, Command::Insert(_))),
            Ok(true)
        );
        // Float overflow to infinity is rejected at the lexer.
        assert!(matches!(
            parse("INSERT INTO R VALUES (1e999,1,0.5)"),
            Err(ParseError::NumberOverflow { .. })
        ));
    }

    #[test]
    fn numbers_still_lex_next_to_words_and_dots() {
        // `e` stays an identifier when not an exponent tail.
        assert!(matches!(parse("SELECT e(x,y)"), Ok(Command::Select(_))));
        // A stray dot is still an unexpected character.
        assert!(matches!(
            parse("SELECT R(x,y) LIMIT 3."),
            Err(ParseError::UnexpectedChar { ch: '.', .. })
        ));
        // A float where a count belongs is a typed token error.
        assert!(matches!(
            parse("NEXT 1.5 ON 0"),
            Err(ParseError::UnexpectedToken { .. })
        ));
    }

    proptest! {
        /// INSERT/LOAD render → parse round-trips on random rows and
        /// CSV-ish strings (the write-path analogue of
        /// `random_select_round_trips`).
        #[test]
        fn write_commands_round_trip(
            rows in prop::collection::vec(
                prop::collection::vec(
                    (0u32..3, i64::MIN..=i64::MAX, -1_000_000i32..1_000_000).prop_map(
                        |(kind, i, m)| match kind {
                            0 => Literal::Int(i),
                            1 => Literal::Float(FloatBits::new(f64::from(m) * 1e-3)),
                            _ => Literal::Float(FloatBits::new(f64::from(m) * 0.125)),
                        },
                    ),
                    1..5,
                ),
                1..4,
            ),
            csv_tags in prop::collection::vec(0usize..16, 0..60),
        ) {
            // A char pool heavy on the wire escapes, so the round-trip
            // exercises every escape sequence, not just plain text.
            const POOL: [char; 16] = [
                'a', 'b', '1', '2', ',', ' ', '.', '-', '\n', '\r', '\t', '\'', '\\', '_', 'w', '0',
            ];
            let csv: String = csv_tags.iter().map(|&t| POOL[t]).collect();
            let insert = Command::Insert(InsertStmt { relation: "R".into(), rows });
            prop_assert_eq!(parse(&insert.to_string()), Ok(insert.clone()));
            let load = Command::Load(LoadStmt { relation: "R".into(), csv });
            prop_assert_eq!(parse(&load.to_string()), Ok(load.clone()));
        }
    }

    #[test]
    fn every_repo_example_query_round_trips() {
        // The acceptance bar: the textual language round-trips every
        // query shape the repo's examples and tests use.
        let snowflake = QueryBuilder::new()
            .atom("Center", &["a", "b", "c"])
            .atom("ArmB", &["b", "d"])
            .atom("ArmC", &["c", "e"])
            .atom("LeafD", &["d", "f"])
            .atom("LeafE", &["e", "g"])
            .build();
        let queries = [
            path_query(2),
            path_query(3),
            path_query(4),
            star_query(3),
            star_query(4),
            triangle_query(),
            cycle_query(4),
            cycle_query(5),
            cycle_query(6),
            snowflake,
        ];
        for q in queries {
            for rank in RankSpec::ALL {
                for limit in [None, Some(1), Some(10)] {
                    let stmt = select_stmt(&q, rank, limit);
                    let text = Command::Select(stmt.clone()).to_string();
                    let parsed = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
                    assert_eq!(parsed, Command::Select(stmt.clone()), "{text}");
                    match parsed {
                        Command::Select(s) => {
                            assert_eq!(s.into_cq(), q, "{text}: lowering must reproduce the query")
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
    }

    /// Random identifier that avoids the reserved keywords.
    fn arb_ident(rng_tag: u64) -> String {
        // Deterministic pool: short names exercise collisions.
        let pool = [
            "r", "s", "t", "x", "y", "z", "a_1", "b2", "Edge", "node", "w_", "V9",
        ];
        pool[(rng_tag as usize) % pool.len()].to_string()
    }

    proptest! {
        /// Render → parse → lower round-trips on random conjunctive
        /// queries (random atom count, arities, shared variables).
        #[test]
        fn random_select_round_trips(
            tags in prop::collection::vec((0u64..12, prop::collection::vec(0u64..12, 1..4)), 1..5),
            rank_i in 0usize..5,
            limit in 0usize..20,
        ) {
            let rank = RankSpec::ALL[rank_i];
            let limit = if limit == 0 { None } else { Some(limit) };
            let atoms: Vec<AtomRef> = tags
                .iter()
                .enumerate()
                .map(|(i, (r, vars))| AtomRef {
                    // Distinct relation names per atom keep the test
                    // focused on parsing, not self-join binding rules.
                    relation: format!("{}_{i}", arb_ident(*r)),
                    vars: vars.iter().map(|&v| arb_ident(v)).collect(),
                })
                .collect();
            let stmt = SelectStmt { atoms, rank, limit };
            let text = Command::Select(stmt.clone()).to_string();
            let parsed = parse(&text).expect("canonical text parses");
            prop_assert_eq!(&parsed, &Command::Select(stmt.clone()));
            // Lowering commutes with rendering: the parsed statement
            // lowers to the same CQ as the original.
            match parsed {
                Command::Select(s) => prop_assert_eq!(s.into_cq(), stmt.into_cq()),
                _ => unreachable!(),
            }
        }

        /// Cursor commands round-trip for arbitrary ids and counts.
        #[test]
        fn cursor_commands_round_trip(count in 1usize..1000, cursor in 0u64..10_000) {
            for cmd in [
                Command::Next { count, cursor },
                Command::Close { cursor },
            ] {
                prop_assert_eq!(parse(&cmd.to_string()), Ok(cmd.clone()));
            }
        }
    }
}
