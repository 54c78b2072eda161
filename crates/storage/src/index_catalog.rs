//! Catalog-resident shared trie indexes: prepare-time index *lookup*
//! instead of per-plan index *build*.
//!
//! Every worst-case-optimal route used to pay [`Trie::build`] per
//! prepared plan — `O(n log n)` sorting work re-materializing structure
//! the catalog could own once. The [`IndexCatalog`] owns that
//! structure: persistent, `Arc`-shared tries keyed by **payload
//! identity** plus a canonical attribute order, populated lazily on
//! first demand and deduplicated across plans (a second plan wanting
//! the same order is a refcount bump, zero copies).
//!
//! Keying details:
//!
//! * **Payload identity, not name + version.** A [`Relation`] handle
//!   names immutable tuple storage via [`Relation::payload_id`]; the
//!   id changes whenever the payload diverges (copy-on-write) and is
//!   never reused within a process. Indexes keyed this way can never
//!   serve stale data — an updated relation has a new payload id, so a
//!   lookup for it simply misses — and catalog snapshots taken
//!   before and after a write share indexes for every relation they
//!   have in common.
//! * **Canonical full-permutation orders.** A request for a *prefix*
//!   order (say `[1]` on a binary relation) is extended with the
//!   remaining columns ascending (`[1, 0]`) before keying, so
//!   order-compatible prefixes reuse one trie. Consumers walk only the
//!   levels they asked for and collect matching rows with
//!   [`Trie::rows_below`], which is level-agnostic.
//!
//! The store is a [`Memo`] — the same one behind the engine's plan
//! cache: each key is built once however many plans ask for it at the
//! same time, memory is bounded by a bytes-estimate LRU cap (each
//! resident trie weighs its [`Trie::memory_bytes`]; building past the
//! cap evicts the least-recently-used resident indexes), and
//! [`IndexCatalog::invalidate_payload`] drops exactly the entries of
//! one payload — the relation-scoped invalidation hook
//! [`Catalog::register`](crate::Catalog::register) and
//! [`Catalog::remove`](crate::Catalog::remove) call on replacement.

use crate::memo::Memo;
use crate::relation::Relation;
use crate::trie::Trie;
use std::sync::Arc;

/// Resolves the sorted trie a join algorithm wants over a relation.
///
/// The two implementations are [`IndexCatalog`] (shared, cached — the
/// serving path) and [`BuildEachTime`] (a fresh private build per
/// request — the standalone/baseline path). Join algorithms take
/// `&dyn IndexProvider` so callers choose the policy.
pub trait IndexProvider {
    /// A trie over `rel` whose first levels follow `positions` (the
    /// provider may return a *deeper* trie sharing that prefix; walk
    /// only the levels you asked for and emit via
    /// [`Trie::rows_below`]).
    fn trie(&self, rel: &Relation, positions: &[usize]) -> Arc<Trie>;

    /// Would [`IndexProvider::trie`] for this request be served without
    /// building (i.e. is it already resident)? Must not build anything
    /// — this is the `EXPLAIN index=cached|built` probe.
    fn probe(&self, rel: &Relation, positions: &[usize]) -> bool;
}

/// The no-cache provider: builds a fresh trie per request, over exactly
/// the requested positions. This is the pre-catalog behavior, kept as
/// the baseline for benchmarks and for ephemeral relations (e.g. a
/// repeated-variable prefilter that actually dropped rows) whose tries
/// must not pollute the shared catalog.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildEachTime;

impl IndexProvider for BuildEachTime {
    fn trie(&self, rel: &Relation, positions: &[usize]) -> Arc<Trie> {
        Arc::new(Trie::build(rel, positions))
    }

    fn probe(&self, _rel: &Relation, _positions: &[usize]) -> bool {
        false
    }
}

/// Default byte budget for resident indexes.
pub const DEFAULT_INDEX_CATALOG_BYTES: usize = 256 << 20;

/// Counters describing the index catalog's behavior, surfaced through
/// `Engine::index_stats()` and the server's `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Requests served by an existing (or in-flight) shared trie.
    pub hits: u64,
    /// Requests that had to install a new entry.
    pub misses: u64,
    /// Tries actually constructed (≤ misses: concurrent requests for
    /// the same key collapse into one build).
    pub builds: u64,
    /// Resident tries dropped by the LRU byte cap (invalidations are
    /// not evictions).
    pub evictions: u64,
    /// Estimated bytes of all resident tries.
    pub resident_bytes: u64,
    /// Number of resident index entries.
    pub entries: usize,
    /// The byte budget evictions enforce.
    pub capacity_bytes: u64,
}

type IndexKey = (u64, Vec<usize>);

/// The shared, lazily-populated, LRU-bounded trie index store (see
/// module docs): a [`Memo`] of tries weighed at their
/// [`Trie::memory_bytes`]. `Catalog` holds one behind an `Arc`, so
/// catalog clones — including the engine's copy-on-write catalog
/// snapshots — share the same warm indexes.
#[derive(Debug)]
pub struct IndexCatalog {
    tries: Memo<IndexKey, Arc<Trie>>,
}

impl Default for IndexCatalog {
    fn default() -> Self {
        IndexCatalog::with_capacity(DEFAULT_INDEX_CATALOG_BYTES)
    }
}

/// The key of the trie over `rel` whose order starts with
/// `positions`: its payload id and `positions` extended with the
/// remaining columns (ascending) into the canonical full-permutation
/// order.
fn index_key(rel: &Relation, positions: &[usize]) -> IndexKey {
    let arity = rel.arity();
    debug_assert!(positions.iter().all(|&p| p < arity));
    let mut canon = Vec::with_capacity(arity);
    canon.extend_from_slice(positions);
    canon.extend((0..arity).filter(|p| !positions.contains(p)));
    (rel.payload_id(), canon)
}

impl IndexCatalog {
    /// An empty catalog with the given resident-bytes budget.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        IndexCatalog {
            tries: Memo::new(capacity_bytes),
        }
    }

    /// Current counters (see [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        let s = self.tries.stats();
        IndexStats {
            hits: s.hits,
            misses: s.misses,
            builds: s.builds,
            evictions: s.evictions,
            resident_bytes: s.weight as u64,
            entries: s.entries,
            capacity_bytes: s.capacity as u64,
        }
    }

    /// Drop every index built over the payload with this id (the
    /// relation-scoped invalidation seam: a replaced or removed
    /// relation's indexes drop; everything else stays warm). Returns
    /// the number of entries dropped.
    pub fn invalidate_payload(&self, payload_id: u64) -> usize {
        (self.tries.remove_if(|(pid, _), _| *pid == payload_id)).len()
    }
}

impl IndexProvider for IndexCatalog {
    fn trie(&self, rel: &Relation, positions: &[usize]) -> Arc<Trie> {
        let build = |(_, order): &IndexKey| Ok(Arc::new(Trie::build(rel, order)));
        let weigh = |trie: &Arc<Trie>| trie.memory_bytes();
        let Ok((trie, _)) =
            (self.tries).get_or_build(index_key(rel, positions), |_| true, build, weigh);
        trie
    }

    fn probe(&self, rel: &Relation, positions: &[usize]) -> bool {
        self.tries.probe(&index_key(rel, positions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::schema::Schema;
    use crate::value::Value;

    fn rel(rows: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["a", "b"]));
        for &(x, y) in rows {
            b.push_ints(&[x, y], 1.0);
        }
        b.finish()
    }

    #[test]
    fn second_request_is_a_hit_not_a_build() {
        let cat = IndexCatalog::default();
        let r = rel(&[(1, 2), (2, 3)]);
        let t1 = cat.trie(&r, &[0, 1]);
        let t2 = cat.trie(&r, &[0, 1]);
        assert!(Arc::ptr_eq(&t1, &t2), "same shared trie, refcount bump");
        let s = cat.stats();
        assert_eq!((s.hits, s.misses, s.builds), (1, 1, 1));
        assert_eq!(s.entries, 1);
        assert_eq!(s.resident_bytes, t1.memory_bytes() as u64);
    }

    #[test]
    fn prefix_orders_share_one_canonical_trie() {
        let cat = IndexCatalog::default();
        let r = rel(&[(1, 2), (2, 3), (1, 3)]);
        let full = cat.trie(&r, &[1, 0]);
        let prefix = cat.trie(&r, &[1]);
        assert!(Arc::ptr_eq(&full, &prefix));
        assert_eq!(cat.stats().builds, 1);
        // The prefix request still answers correctly via rows_below.
        let root = prefix.root();
        let i = prefix.find(root, Value::Int(3)).unwrap();
        assert_eq!(prefix.rows_below(root, i).len(), 2);
        // A different leading column is a different trie.
        let other = cat.trie(&r, &[0, 1]);
        assert!(!Arc::ptr_eq(&full, &other));
        assert_eq!(cat.stats().builds, 2);
    }

    #[test]
    fn distinct_payloads_do_not_alias() {
        let cat = IndexCatalog::default();
        let r1 = rel(&[(1, 2)]);
        let r2 = rel(&[(3, 4)]);
        let t1 = cat.trie(&r1, &[0, 1]);
        let t2 = cat.trie(&r2, &[0, 1]);
        assert!(!Arc::ptr_eq(&t1, &t2));
        // ...but shared handles (same payload) do alias, whatever the
        // atom name upstream.
        let t3 = cat.trie(&r1.clone(), &[0, 1]);
        assert!(Arc::ptr_eq(&t1, &t3));
    }

    #[test]
    fn invalidate_payload_is_relation_scoped() {
        let cat = IndexCatalog::default();
        let r1 = rel(&[(1, 2), (2, 3)]);
        let r2 = rel(&[(5, 6)]);
        cat.trie(&r1, &[0, 1]);
        cat.trie(&r1, &[1, 0]);
        let keep = cat.trie(&r2, &[0, 1]);
        assert_eq!(cat.stats().entries, 3);
        assert_eq!(cat.invalidate_payload(r1.payload_id()), 2);
        let s = cat.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.resident_bytes, keep.memory_bytes() as u64);
        assert!(cat.probe(&r2, &[0, 1]), "survivor stays warm");
        assert!(!cat.probe(&r1, &[0, 1]));
        // Invalidations are not evictions.
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn lru_cap_evicts_least_recently_used() {
        let r = rel(&[(1, 2), (2, 3), (3, 4)]);
        let one = Trie::build(&r, &[0, 1]).memory_bytes();
        // Room for two resident tries, not three.
        let cat = IndexCatalog::with_capacity(2 * one + one / 2);
        cat.trie(&r, &[0, 1]);
        cat.trie(&r, &[1, 0]);
        assert_eq!(cat.stats().entries, 2);
        // Touch [0,1] so [1,0] is the LRU victim.
        cat.trie(&r, &[0, 1]);
        let other = rel(&[(7, 8), (8, 9), (9, 7)]);
        cat.trie(&other, &[0, 1]);
        let s = cat.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(cat.probe(&r, &[0, 1]), "recently used survives");
        assert!(!cat.probe(&r, &[1, 0]), "LRU evicted");
        assert!(s.resident_bytes <= s.capacity_bytes);
    }

    #[test]
    fn probe_never_builds() {
        let cat = IndexCatalog::default();
        let r = rel(&[(1, 2)]);
        assert!(!cat.probe(&r, &[0, 1]));
        let s = cat.stats();
        assert_eq!((s.misses, s.builds, s.entries), (0, 0, 0));
    }

    #[test]
    fn build_each_time_is_always_fresh() {
        let p = BuildEachTime;
        let r = rel(&[(1, 2)]);
        let t1 = p.trie(&r, &[0, 1]);
        let t2 = p.trie(&r, &[0, 1]);
        assert!(!Arc::ptr_eq(&t1, &t2));
        assert!(!p.probe(&r, &[0, 1]));
    }

    #[test]
    fn concurrent_same_key_builds_exactly_once() {
        let cat = Arc::new(IndexCatalog::default());
        let r = rel(&[(1, 2), (2, 3), (3, 1), (1, 3)]);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cat = Arc::clone(&cat);
            let r = r.clone();
            handles.push(std::thread::spawn(move || cat.trie(&r, &[0, 1])));
        }
        let tries: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &tries[1..] {
            assert!(Arc::ptr_eq(&tries[0], t));
        }
        let s = cat.stats();
        assert_eq!(s.builds, 1, "one build despite 8 concurrent requests");
        assert_eq!(s.hits + s.misses, 8);
    }
}
