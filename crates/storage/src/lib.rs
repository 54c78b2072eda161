//! # anyk-storage
//!
//! The relational substrate underlying the `anyk` project: compact values,
//! weighted in-memory relations, and the one index family — sorted
//! tries — that the join and ranked-enumeration algorithms are built on.
//!
//! The paper's complexity model (*Optimal Join Algorithms Meet Top-k*,
//! SIGMOD 2020) assumes no pre-built indexes at query time — algorithms
//! construct what they need and the construction cost counts. The
//! serving system relaxes that deliberately: the [`index_catalog`]
//! amortizes trie construction across prepared plans (first demand
//! pays, every later plan is a shared lookup), while the per-request
//! [`index_catalog::BuildEachTime`] provider preserves the paper's
//! build-per-plan accounting for baselines.
//!
//! ## Layout
//! * [`value`] — [`Value`] (copyable scalar) and
//!   [`Weight`] (totally ordered `f64`).
//! * [`schema`] — attribute names and positions.
//! * [`relation`] — row-major weighted relations and builders.
//! * [`delta`] — delta-backed relations: immutable base + append-only
//!   `Arc`-shared delta batches, with threshold-driven compaction.
//! * [`trie`] — sorted nested tries: the levels of worst-case-optimal
//!   joins, and (built on a join key) the sort behind every semi-join
//!   and join-key grouping. There is no hash index.
//! * [`index_catalog`] — catalog-resident shared trie indexes
//!   (lazy, LRU-bounded, payload-identity keyed).
//! * [`memo`] — the keyed, build-once, weight-bounded LRU store behind
//!   the index catalog and the engine's plan cache.
//! * [`partition`] — deterministic full-row hash partitioning of
//!   relations into shard fragments.
//! * [`catalog`] — named relations plus a string dictionary.
//! * [`csv`] — minimal CSV import/export for weighted relations.
//! * [`fxhash`] — the fast FxHash-style hasher used by all hot hash maps.

pub mod catalog;
pub mod csv;
pub mod delta;
pub mod error;
pub mod fxhash;
pub mod index_catalog;
pub mod memo;
pub mod partition;
pub mod relation;
pub mod schema;
pub mod trie;
pub mod value;

pub use catalog::Catalog;
pub use csv::{read_csv, read_csv_with_catalog, write_csv};
pub use delta::{DeltaRelation, MIN_COMPACT_ROWS};
pub use error::StorageError;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use index_catalog::{
    BuildEachTime, IndexCatalog, IndexProvider, IndexStats, DEFAULT_INDEX_CATALOG_BYTES,
};
pub use memo::{Memo, MemoStats};
pub use partition::{partition_relation, shard_of_row};
pub use relation::{Relation, RelationBuilder, RowId, MAX_ROWS};
pub use schema::Schema;
pub use trie::Trie;
pub use value::{FloatBits, Value, Weight};
