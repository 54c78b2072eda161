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
//! Memory is bounded by a bytes-estimate LRU cap (mirroring the
//! engine's plan cache): each resident trie is accounted at
//! [`Trie::memory_bytes`], and building past the cap evicts the
//! least-recently-used resident indexes. Recency is a **logical tick**
//! (this is a deterministic library crate — no wall clocks).
//! [`IndexCatalog::invalidate_payload`] drops exactly the entries of
//! one payload — the relation-scoped invalidation hook
//! [`Catalog::register`](crate::Catalog::register) and
//! [`Catalog::remove`](crate::Catalog::remove) call on replacement.

use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use crate::trie::Trie;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// Default byte budget for resident indexes (mirrors the plan cache's
/// bounded-by-default policy).
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

#[derive(Debug)]
struct Entry {
    /// Build-exactly-once cell: the map lock is released while the
    /// winning thread builds, so same-key waiters block on the cell
    /// (not the whole catalog) and every other key stays available.
    cell: Arc<OnceLock<Arc<Trie>>>,
    /// `memory_bytes` of the built trie; 0 while the build is in
    /// flight (in-flight entries are not yet accounted or evictable).
    bytes: usize,
    /// Logical recency for LRU eviction.
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    map: FxHashMap<IndexKey, Entry>,
    tick: u64,
    capacity_bytes: usize,
    resident_bytes: usize,
    hits: u64,
    misses: u64,
    builds: u64,
    evictions: u64,
}

/// The shared, lazily-populated, LRU-bounded trie index store (see
/// module docs). `Catalog` holds one behind an `Arc`, so catalog
/// clones — including the engine's copy-on-write catalog snapshots —
/// share the same warm indexes.
#[derive(Debug)]
pub struct IndexCatalog {
    inner: Mutex<Inner>,
}

impl Default for IndexCatalog {
    fn default() -> Self {
        IndexCatalog::with_capacity(DEFAULT_INDEX_CATALOG_BYTES)
    }
}

/// Extend `positions` with the remaining columns (ascending) into the
/// canonical full-permutation trie order.
fn canonical_positions(arity: usize, positions: &[usize]) -> Vec<usize> {
    debug_assert!(positions.iter().all(|&p| p < arity));
    let mut canon = Vec::with_capacity(arity);
    canon.extend_from_slice(positions);
    for p in 0..arity {
        if !positions.contains(&p) {
            canon.push(p);
        }
    }
    canon
}

impl IndexCatalog {
    /// An empty catalog with the given resident-bytes budget.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        IndexCatalog {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                tick: 0,
                capacity_bytes,
                resident_bytes: 0,
                hits: 0,
                misses: 0,
                builds: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current counters (see [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        let inner = self.lock();
        IndexStats {
            hits: inner.hits,
            misses: inner.misses,
            builds: inner.builds,
            evictions: inner.evictions,
            resident_bytes: inner.resident_bytes as u64,
            entries: inner.map.len(),
            capacity_bytes: inner.capacity_bytes as u64,
        }
    }

    /// Change the byte budget, evicting LRU entries if the new budget
    /// is already exceeded.
    pub fn set_capacity(&self, capacity_bytes: usize) {
        let mut inner = self.lock();
        inner.capacity_bytes = capacity_bytes;
        Self::evict_over_capacity(&mut inner, None);
    }

    /// Drop every index built over the payload with this id (the
    /// relation-scoped invalidation seam: a replaced or removed
    /// relation's indexes drop; everything else stays warm). Returns
    /// the number of entries dropped.
    pub fn invalidate_payload(&self, payload_id: u64) -> usize {
        let mut inner = self.lock();
        let before = inner.map.len();
        let mut freed = 0usize;
        inner.map.retain(|(pid, _), e| {
            if *pid == payload_id {
                freed += e.bytes;
                false
            } else {
                true
            }
        });
        inner.resident_bytes -= freed;
        before - inner.map.len()
    }

    fn evict_over_capacity(inner: &mut Inner, keep: Option<&IndexKey>) {
        while inner.resident_bytes > inner.capacity_bytes {
            let victim = inner
                .map
                .iter()
                .filter(|(k, e)| e.bytes > 0 && keep != Some(*k))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            if let Some(e) = inner.map.remove(&k) {
                inner.resident_bytes -= e.bytes;
                inner.evictions += 1;
            }
        }
    }
}

impl IndexProvider for IndexCatalog {
    fn trie(&self, rel: &Relation, positions: &[usize]) -> Arc<Trie> {
        let key: IndexKey = (
            rel.payload_id(),
            canonical_positions(rel.arity(), positions),
        );
        let cell = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&key) {
                e.last_used = tick;
                let cell = Arc::clone(&e.cell);
                inner.hits += 1;
                cell
            } else {
                inner.misses += 1;
                let cell: Arc<OnceLock<Arc<Trie>>> = Arc::new(OnceLock::new());
                inner.map.insert(
                    key.clone(),
                    Entry {
                        cell: Arc::clone(&cell),
                        bytes: 0,
                        last_used: tick,
                    },
                );
                cell
            }
        };
        // Build outside the map lock: only same-key requesters wait.
        let mut built_here = false;
        let trie = Arc::clone(cell.get_or_init(|| {
            built_here = true;
            Arc::new(Trie::build(rel, &key.1))
        }));
        if built_here {
            let bytes = trie.memory_bytes();
            let mut inner = self.lock();
            inner.builds += 1;
            // The entry may have been invalidated while building; only
            // account bytes for entries still resident.
            if let Some(e) = inner.map.get_mut(&key) {
                e.bytes = bytes;
                inner.resident_bytes += bytes;
                Self::evict_over_capacity(&mut inner, Some(&key));
            }
        }
        trie
    }

    fn probe(&self, rel: &Relation, positions: &[usize]) -> bool {
        let key: IndexKey = (
            rel.payload_id(),
            canonical_positions(rel.arity(), positions),
        );
        let inner = self.lock();
        inner.map.get(&key).is_some_and(|e| e.cell.get().is_some())
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
