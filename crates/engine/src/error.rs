//! The engine's typed error — every failure mode of planning and
//! execution that previously surfaced as a `panic!` on an internal
//! seam (catalog lookup, schema lookup, tree/atom mismatch).

use anyk_core::tdp::TdpError;
use anyk_storage::StorageError;
use std::error::Error;
use std::fmt;

/// Why the engine could not plan or execute a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A storage-layer lookup failed (unknown relation or attribute).
    Storage(StorageError),
    /// Atom `atom` binds relation `relation`, whose arity does not
    /// match the atom's variable count.
    ArityMismatch {
        /// Index of the offending atom in the query.
        atom: usize,
        /// The relation name the atom references.
        relation: String,
        /// The atom's variable count.
        expected: usize,
        /// The relation's actual arity.
        found: usize,
    },
    /// T-DP preparation refused its input: a query/tree pair without
    /// one tree node per atom or a ranking that cannot collapse
    /// weights (both reachable only through hand-built plans), or a
    /// relation with more rows than 32-bit ids address — typed instead
    /// of panicking or wrapping.
    Prepare(TdpError),
    /// The query has no atoms (nothing to enumerate).
    EmptyQuery,
    /// `try_from_query_bindings` was given a relation list whose
    /// length differs from the query's atom count.
    BindingCountMismatch {
        /// The query's atom count.
        atoms: usize,
        /// The number of relations supplied.
        relations: usize,
    },
    /// `try_from_query_bindings` found two atoms sharing a relation
    /// name but bound to different relations — the query would run on
    /// the wrong data.
    ConflictingBindings {
        /// The shared relation name.
        relation: String,
    },
    /// A [`ShardedEngine`](crate::ShardedEngine) was asked for zero
    /// shards — there would be nothing to merge.
    ZeroShards,
    /// A relation name uses the reserved shard-fragment marker `#`
    /// (fragments are addressed as `{name}#frag` internally, so user
    /// relations must not collide with that namespace).
    ReservedRelationName {
        /// The offending relation name.
        relation: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage: {e}"),
            EngineError::ArityMismatch {
                atom,
                relation,
                expected,
                found,
            } => write!(
                f,
                "atom #{atom} uses relation `{relation}` with {expected} variable(s), \
                 but the relation has arity {found}"
            ),
            EngineError::Prepare(e) => write!(f, "T-DP preparation failed: {e:?}"),
            EngineError::EmptyQuery => write!(f, "query has no atoms"),
            EngineError::BindingCountMismatch { atoms, relations } => write!(
                f,
                "query has {atoms} atom(s) but {relations} relation(s) were supplied"
            ),
            EngineError::ConflictingBindings { relation } => write!(
                f,
                "atoms sharing the name `{relation}` were bound to different relations"
            ),
            EngineError::ZeroShards => write!(f, "a sharded engine needs at least one shard"),
            EngineError::ReservedRelationName { relation } => write!(
                f,
                "relation name `{relation}` uses the reserved shard-fragment marker `#`"
            ),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<TdpError> for EngineError {
    fn from(e: TdpError) -> Self {
        EngineError::Prepare(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EngineError::from(StorageError::RelationNotFound { name: "R".into() });
        assert!(e.to_string().contains("`R`"));
        assert!(Error::source(&e).is_some());

        let e = EngineError::ArityMismatch {
            atom: 1,
            relation: "S".into(),
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("arity 3"));
        assert!(Error::source(&e).is_none());

        let e = EngineError::from(TdpError::TooLarge { len: 1 << 32 });
        assert!(e.to_string().contains("TooLarge { len: 4294967296 }"));
    }
}
