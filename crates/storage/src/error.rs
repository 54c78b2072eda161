//! Typed storage errors — the non-panicking side of catalog and schema
//! lookups, threaded up to `anyk_engine::EngineError` by the unified
//! entry point.

use std::error::Error;
use std::fmt;

/// A failed storage-layer lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// No relation registered under this name in the catalog.
    RelationNotFound {
        /// The name that was looked up.
        name: String,
    },
    /// The schema has no attribute with this name.
    AttributeNotFound {
        /// The attribute that was looked up.
        attr: String,
        /// Display form of the schema searched (e.g. `(a, b, c)`).
        schema: String,
    },
    /// An append batch whose arity does not match the target relation.
    ArityMismatch {
        /// The relation appended to.
        name: String,
        /// The relation's arity.
        expected: usize,
        /// The batch's arity.
        got: usize,
    },
    /// An append batch that would take the relation past
    /// [`MAX_ROWS`](crate::relation::MAX_ROWS) rows (base and deltas
    /// together), beyond what a [`RowId`](crate::RowId) addresses.
    TooManyRows {
        /// The relation appended to.
        name: String,
        /// The row count the append would have left it with.
        rows: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::RelationNotFound { name } => {
                write!(f, "relation `{name}` not registered in catalog")
            }
            StorageError::AttributeNotFound { attr, schema } => {
                write!(f, "attribute `{attr}` not in schema {schema}")
            }
            StorageError::ArityMismatch {
                name,
                expected,
                got,
            } => {
                write!(
                    f,
                    "append to `{name}`: batch arity {got} does not match relation arity {expected}"
                )
            }
            StorageError::TooManyRows { name, rows } => {
                write!(
                    f,
                    "append to `{name}`: {rows} rows exceed the {} a relation can hold",
                    crate::relation::MAX_ROWS
                )
            }
        }
    }
}

impl Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StorageError::RelationNotFound { name: "R".into() };
        assert_eq!(e.to_string(), "relation `R` not registered in catalog");
        let e = StorageError::AttributeNotFound {
            attr: "x".into(),
            schema: "(a, b)".into(),
        };
        assert_eq!(e.to_string(), "attribute `x` not in schema (a, b)");
        let e = StorageError::ArityMismatch {
            name: "R".into(),
            expected: 2,
            got: 3,
        };
        assert_eq!(
            e.to_string(),
            "append to `R`: batch arity 3 does not match relation arity 2"
        );
        let e = StorageError::TooManyRows {
            name: "R".into(),
            rows: 1 << 32,
        };
        assert_eq!(
            e.to_string(),
            "append to `R`: 4294967296 rows exceed the 4294967295 a relation can hold"
        );
    }
}
