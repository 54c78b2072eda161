//! A catalog of named relations plus the string dictionary backing
//! [`Value::Sym`].

use crate::delta::DeltaRelation;
use crate::error::StorageError;
use crate::fxhash::FxHashMap;
use crate::index_catalog::IndexCatalog;
use crate::relation::{Relation, MAX_ROWS};
use crate::trie::Trie;
use crate::value::Value;
use std::sync::Arc;

/// Named relations + string interning + the shared index catalog.
///
/// Every entry is a [`DeltaRelation`]: an immutable base payload plus
/// append-only delta batches. [`Catalog::get`] / [`Catalog::lookup`]
/// return the **base** handle (the payload shared trie indexes are
/// built over); delta-aware callers — the engine's prepare path —
/// read the full entry through [`Catalog::entry`] and merge all of
/// its sources. A freshly [`Catalog::register`]ed relation has no
/// deltas, so for read-only catalogs the base *is* the full content.
///
/// Relations are [`Relation`] *handles*: returned references `clone()`
/// as a refcount bump, never an `O(n)` tuple copy — resolution hands
/// out shared payloads. Cloning the whole catalog likewise shares
/// every relation payload (the engine's copy-on-write writes rely on
/// this) — **and** the [`IndexCatalog`], so snapshots on either side
/// of a write keep serving the same warm trie indexes for every
/// relation it did not touch.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    relations: FxHashMap<String, DeltaRelation>,
    symbols: Vec<String>,
    symbol_ids: FxHashMap<String, u32>,
    indexes: Arc<IndexCatalog>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a relation under `name` as a delta-free
    /// entry. Replacing drops exactly the replaced entry's shared trie
    /// indexes — base and any pending deltas (relation-scoped
    /// invalidation — indexes over other relations stay warm).
    pub fn register<S: Into<String>>(&mut self, name: S, rel: Relation) {
        let new_id = rel.payload_id();
        if let Some(old) = self.relations.insert(name.into(), DeltaRelation::new(rel)) {
            // Same payload re-registered (a no-op replace) keeps its
            // indexes; any genuinely replaced payload is invalidated.
            for id in old.source_ids() {
                if id != new_id {
                    self.indexes.invalidate_payload(id);
                }
            }
        }
    }

    /// Look up a relation by name. Returns the **base** payload
    /// handle; pending delta batches are visible only through
    /// [`Catalog::entry`] (the engine's delta-aware prepare path reads
    /// them there).
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(DeltaRelation::base)
    }

    /// Look up a relation by name, with a typed error for absence —
    /// the non-panicking seam the engine layer routes through. Base
    /// payload only, like [`Catalog::get`].
    pub fn lookup(&self, name: &str) -> Result<&Relation, StorageError> {
        self.get(name)
            .ok_or_else(|| StorageError::RelationNotFound {
                name: name.to_string(),
            })
    }

    /// The full delta-backed entry under `name` (base + pending delta
    /// batches) — what delta-aware readers resolve against.
    pub fn entry(&self, name: &str) -> Option<&DeltaRelation> {
        self.relations.get(name)
    }

    /// Append one immutable batch to the named relation (`O(batch)`:
    /// the batch payload is adopted as a delta, the base is never
    /// rewritten). Typed errors for an unknown relation, for an arity
    /// mismatch, and for a batch that would take the relation past
    /// [`MAX_ROWS`] rows — the entry is left as it was; empty batches
    /// succeed without adding a delta.
    pub fn append(&mut self, name: &str, batch: Relation) -> Result<(), StorageError> {
        let entry = self
            .relations
            .get_mut(name)
            .ok_or_else(|| StorageError::RelationNotFound {
                name: name.to_string(),
            })?;
        if batch.arity() != entry.base().arity() {
            return Err(StorageError::ArityMismatch {
                name: name.to_string(),
                expected: entry.base().arity(),
                got: batch.arity(),
            });
        }
        check_rows(name, entry.total_rows().saturating_add(batch.len()))?;
        entry.push(batch);
        Ok(())
    }

    /// Fold the named relation's deltas into a fresh base payload
    /// (row order preserved: base rows, then deltas oldest-first).
    /// Drops the shared trie indexes of every replaced source payload;
    /// readers holding old handles are untouched. Returns whether a
    /// compaction actually happened (`false` when delta-free).
    pub fn compact(&mut self, name: &str) -> Result<bool, StorageError> {
        let entry = self
            .relations
            .get_mut(name)
            .ok_or_else(|| StorageError::RelationNotFound {
                name: name.to_string(),
            })?;
        let old_ids = entry.source_ids();
        if !entry.compact() {
            return Ok(false);
        }
        for id in old_ids {
            self.indexes.invalidate_payload(id);
        }
        Ok(true)
    }

    /// Remove a relation, returning its full flattened content if
    /// present. All of its source payloads' shared trie indexes are
    /// dropped (relation-scoped invalidation).
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        let removed = self.relations.remove(name);
        removed.map(|entry| {
            for id in entry.source_ids() {
                self.indexes.invalidate_payload(id);
            }
            entry.flatten()
        })
    }

    /// A shared trie index over the named relation whose level order
    /// starts with `positions` — served from the [`IndexCatalog`]
    /// (built lazily on first demand, a refcount bump afterwards).
    pub fn index(&self, name: &str, positions: &[usize]) -> Result<Arc<Trie>, StorageError> {
        use crate::index_catalog::IndexProvider;
        let rel = self.lookup(name)?;
        Ok(self.indexes.trie(rel, positions))
    }

    /// The shared index catalog. Catalog clones (including the
    /// engine's copy-on-write snapshots) return the *same* catalog, so
    /// warm indexes survive writes for untouched relations.
    pub fn indexes(&self) -> &Arc<IndexCatalog> {
        &self.indexes
    }

    /// A copy of this catalog with the *same* relations and symbol
    /// dictionary but a **fresh, empty** [`IndexCatalog`] of the same
    /// capacity. Relation payloads are still shared (refcount bumps),
    /// so the fork is `O(#relations)` — this is how a sharded partition
    /// gives each shard its own index budget and hit/miss accounting
    /// while a plain [`Clone`] keeps sharing warm indexes.
    pub fn fork_with_fresh_indexes(&self) -> Catalog {
        Catalog {
            relations: self.relations.clone(),
            symbols: self.symbols.clone(),
            symbol_ids: self.symbol_ids.clone(),
            indexes: Arc::new(IndexCatalog::with_capacity(
                self.indexes.stats().capacity_bytes as usize,
            )),
        }
    }

    /// Names of all registered relations (unspecified order).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// A copy of this catalog with every entry flattened into a single
    /// delta-free payload (base ⊎ deltas, source order preserved) and
    /// a fresh index catalog. Delta-free entries share their payloads
    /// (refcount bumps). The reference-semantics seam for write-path
    /// oracles: an engine over `flattened()` must answer exactly like
    /// one over the live delta-bearing catalog.
    pub fn flattened(&self) -> Catalog {
        let mut out = self.fork_with_fresh_indexes();
        out.relations = self
            .relations
            .iter()
            .map(|(name, entry)| (name.clone(), DeltaRelation::new(entry.flatten())))
            .collect();
        out
    }

    /// Intern a string, returning its symbol value.
    pub fn intern<S: AsRef<str>>(&mut self, s: S) -> Value {
        let s = s.as_ref();
        if let Some(&id) = self.symbol_ids.get(s) {
            return Value::Sym(id);
        }
        let id = self.symbols.len() as u32;
        self.symbols.push(s.to_string());
        self.symbol_ids.insert(s.to_string(), id);
        Value::Sym(id)
    }

    /// Resolve a symbol back to its string.
    pub fn resolve(&self, v: Value) -> Option<&str> {
        match v {
            Value::Sym(id) => self.symbols.get(id as usize).map(String::as_str),
            _ => None,
        }
    }
}

/// `rows` as the row count of relation `name`, or the typed refusal
/// past [`MAX_ROWS`]: every relation the catalog holds, flattened or
/// compacted, stays within its row ids.
fn check_rows(name: &str, rows: usize) -> Result<(), StorageError> {
    if rows > MAX_ROWS {
        return Err(StorageError::TooManyRows {
            name: name.to_string(),
            rows,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::schema::Schema;

    #[test]
    fn register_and_get() {
        let mut c = Catalog::new();
        let mut b = RelationBuilder::new(Schema::new(["a"]));
        b.push_ints(&[1], 0.0);
        c.register("R", b.finish());
        assert_eq!(c.lookup("R").map(Relation::len), Ok(1));
        assert_eq!(
            c.lookup("S").err(),
            Some(StorageError::RelationNotFound { name: "S".into() })
        );
        assert!(c.get("S").is_none());
        assert_eq!(c.names().collect::<Vec<_>>(), vec!["R"]);
        assert_eq!(c.remove("R").map(|r| r.len()), Some(1));
    }

    #[test]
    fn catalog_index_is_shared_and_invalidated_on_replace() {
        use crate::index_catalog::IndexProvider;
        let mut c = Catalog::new();
        let mut b = RelationBuilder::new(Schema::new(["a", "b"]));
        b.push_ints(&[1, 2], 0.0);
        b.push_ints(&[2, 3], 0.0);
        c.register("R", b.finish());
        let mut b2 = RelationBuilder::new(Schema::new(["a", "b"]));
        b2.push_ints(&[9, 9], 0.0);
        c.register("S", b2.finish());

        let t1 = c.index("R", &[0, 1]).unwrap();
        let t2 = c.index("R", &[0, 1]).unwrap();
        assert!(std::sync::Arc::ptr_eq(&t1, &t2));
        c.index("S", &[0, 1]).unwrap();

        // A clone shares the same index catalog (warm across snapshots).
        let clone = c.clone();
        let t3 = clone.index("R", &[0, 1]).unwrap();
        assert!(std::sync::Arc::ptr_eq(&t1, &t3));
        assert_eq!(c.indexes().stats().builds, 2);

        // Replacing R drops only R's indexes; S stays warm.
        let s_rel = c.get("S").unwrap().clone();
        let mut b3 = RelationBuilder::new(Schema::new(["a", "b"]));
        b3.push_ints(&[5, 6], 0.0);
        c.register("R", b3.finish());
        let old_r = t1;
        assert!(!c.indexes().probe(c.get("R").unwrap(), &[0, 1]));
        assert!(c.indexes().probe(&s_rel, &[0, 1]), "S index survives");
        drop(old_r);

        // Removing S drops its index too.
        c.remove("S");
        assert_eq!(c.indexes().stats().entries, 0);
    }

    #[test]
    fn append_and_compact_are_typed_and_relation_scoped() {
        use crate::index_catalog::IndexProvider;
        let mut c = Catalog::new();
        let mut b = RelationBuilder::new(Schema::new(["a", "b"]));
        b.push_ints(&[1, 2], 0.0);
        c.register("R", b.finish());
        let mut b2 = RelationBuilder::new(Schema::new(["a", "b"]));
        b2.push_ints(&[9, 9], 0.0);
        c.register("S", b2.finish());
        let s_rel = c.get("S").unwrap().clone();
        c.index("R", &[0, 1]).unwrap();
        c.index("S", &[0, 1]).unwrap();

        // Typed failures: unknown relation, arity mismatch.
        let batch = {
            let mut b = RelationBuilder::new(Schema::new(["a", "b"]));
            b.push_ints(&[3, 4], 0.5);
            b.finish()
        };
        assert_eq!(
            c.append("T", batch.clone()).err(),
            Some(StorageError::RelationNotFound { name: "T".into() })
        );
        let wide = {
            let mut b = RelationBuilder::new(Schema::new(["a", "b", "c"]));
            b.push_ints(&[1, 2, 3], 0.0);
            b.finish()
        };
        assert_eq!(
            c.append("R", wide).err(),
            Some(StorageError::ArityMismatch {
                name: "R".into(),
                expected: 2,
                got: 3,
            })
        );

        // A successful append leaves the base (and its index) alone.
        let base = c.get("R").unwrap().clone();
        c.append("R", batch).unwrap();
        assert!(c.get("R").unwrap().shares_payload(&base), "get is the base");
        assert_eq!(c.entry("R").unwrap().delta_rows(), 1);
        assert!(c.indexes().probe(&base, &[0, 1]), "base index stays warm");

        // Compaction swaps in a fresh base and drops only R's indexes.
        assert_eq!(c.compact("R"), Ok(true));
        assert_eq!(c.compact("R"), Ok(false), "second compact is a no-op");
        let flat = c.get("R").unwrap().clone();
        assert_eq!(flat.len(), 2);
        assert!(!c.entry("R").unwrap().has_deltas());
        assert!(!c.indexes().probe(&base, &[0, 1]), "old base index dropped");
        assert!(c.indexes().probe(&s_rel, &[0, 1]), "S index survives");
        assert_eq!(
            c.compact("T").err(),
            Some(StorageError::RelationNotFound { name: "T".into() })
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn appends_past_the_row_id_range_are_refused() {
        // The boundary itself, without allocating four billion rows.
        assert_eq!(check_rows("R", MAX_ROWS), Ok(()));
        assert_eq!(
            check_rows("R", MAX_ROWS + 1),
            Err(StorageError::TooManyRows {
                name: "R".into(),
                rows: MAX_ROWS + 1,
            })
        );
    }

    #[test]
    fn remove_returns_flattened_content() {
        let mut c = Catalog::new();
        let mut b = RelationBuilder::new(Schema::new(["a"]));
        b.push_ints(&[1], 0.0);
        c.register("R", b.finish());
        let mut d = RelationBuilder::new(Schema::new(["a"]));
        d.push_ints(&[2], 0.0);
        c.append("R", d.finish()).unwrap();
        let gone = c.remove("R").unwrap();
        assert_eq!(gone.len(), 2, "remove hands back base ⊎ deltas");
        assert!(c.get("R").is_none());
    }

    #[test]
    fn interning_is_stable() {
        let mut c = Catalog::new();
        let a = c.intern("alice");
        let b = c.intern("bob");
        let a2 = c.intern("alice");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.resolve(a), Some("alice"));
        assert_eq!(c.resolve(Value::Int(1)), None);
    }
}
