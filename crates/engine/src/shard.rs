//! In-process sharded serving: N full [`Engine`]s over hash-partitioned
//! catalogs, queried through one globally-ranked merged stream.
//!
//! ## Fragment-and-replicate partitioning
//!
//! Naive per-relation partitioning breaks join completeness (a join
//! answer may combine rows that hashed to different shards). Instead,
//! every shard's catalog holds the **full** relation under its original
//! name *plus* that relation's hash fragment under the reserved name
//! `{name}#frag` (`#` cannot appear in a parsed identifier, so the
//! fragment namespace is unreachable from the wire). At prepare time
//! exactly one *pivot* atom — chosen deterministically as the largest
//! relation, ties to the lowest atom index — is retargeted at the
//! fragment name; all other atoms read their replicated relations. Each
//! answer binds exactly one pivot row, every row lives in exactly one
//! fragment, and duplicate rows co-locate ([`anyk_storage::partition`]),
//! so the shard streams *partition* the answer multiset: disjoint,
//! complete, no de-duplication needed. Self-joins are safe because only
//! one atom is rewritten.
//!
//! ## Deterministic cross-shard tie-break
//!
//! A sharded prepare is a plain [`PreparedQuery`] union over the
//! per-shard parts (see [`crate::merge`]): one tournament merge with
//! the canonical (cost, output tuple, leaf) tie-break, so the merged
//! stream is byte-identical to the single-engine stream's canonical
//! form ([`RankedStream::canonical_ties`]) at every shard count.

use crate::error::EngineError;
use crate::prepared::PreparedQuery;
use crate::rank::RankSpec;
use crate::stream::RankedStream;
use anyk_obs::ObsRegistry;
use anyk_query::cq::ConjunctiveQuery;
use anyk_storage::{partition_relation, Catalog, Relation};
use std::sync::{Arc, PoisonError, RwLock};

use crate::{CacheStats, Engine, EngineOpts, PrepareReport, WriteStats};
use anyk_storage::IndexStats;

/// The reserved marker appended to a relation name to address its hash
/// fragment on a shard. `#` is not a legal identifier character in the
/// wire protocol, so client queries can never name a fragment directly.
pub const FRAGMENT_SUFFIX: &str = "#frag";

fn fragment_name(relation: &str) -> String {
    format!("{relation}{FRAGMENT_SUFFIX}")
}

/// State shared by all clones of one [`ShardedEngine`].
struct ShardedShared {
    /// One full engine per shard, each over its own catalog fork with
    /// its own index catalog.
    engines: Vec<Engine>,
    /// The cross-shard coordination epoch. Writers (register/remove)
    /// hold the write side while applying an update to *every* shard,
    /// so a prepare (read side) always sees all shards at the same
    /// logical version — no torn cross-shard catalogs.
    ///
    /// Lock order: `coord` is acquired before any per-shard catalog or
    /// cache lock (coord ≺ catalog ≺ cache ≺ cursor table).
    coord: RwLock<u64>,
}

/// N full [`Engine`] shards behind one globally-ranked query facade.
///
/// `Clone + Send + Sync`: clones are handles onto the same shard set,
/// so any number of threads may prepare, stream, and update
/// concurrently. Catalog updates are epoch-coordinated: a relation
/// update re-partitions the relation and applies (full + fragment) to
/// every shard under the coordination write lock, bumping the global
/// epoch; streams opened earlier keep their immutable snapshots
/// (relation payloads are `Arc`-shared), preserving snapshot isolation
/// mid-stream.
#[derive(Clone)]
pub struct ShardedEngine {
    shared: Arc<ShardedShared>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.num_shards())
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Shard `catalog` across `shards` engines with default options.
    ///
    /// Every relation is replicated to each shard under its original
    /// name (refcount bumps, no tuple copies) and hash-partitioned into
    /// per-shard fragments under `{name}#frag`. Fails on zero shards or
    /// a relation name that already uses the reserved `#` marker.
    pub fn new(catalog: Catalog, shards: usize) -> Result<Self, EngineError> {
        ShardedEngine::with_opts(catalog, shards, EngineOpts::default())
    }

    /// [`ShardedEngine::new`] with explicit per-shard engine options.
    pub fn with_opts(
        catalog: Catalog,
        shards: usize,
        opts: EngineOpts,
    ) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let mut names: Vec<String> = catalog.names().map(str::to_string).collect();
        names.sort_unstable();
        for name in &names {
            if name.contains('#') {
                return Err(EngineError::ReservedRelationName {
                    relation: name.clone(),
                });
            }
        }
        let engines = (0..shards)
            .map(|i| {
                // Each shard gets its own index catalog (fresh stats and
                // budget) but shares every relation payload.
                let mut cat = catalog.fork_with_fresh_indexes();
                for name in &names {
                    // The fork holds every name just enumerated, and
                    // `partition_relation` yields exactly `shards`
                    // parts (one when `shards == 1`), so both lookups
                    // always hit.
                    let frag = cat
                        .get(name)
                        .map(|rel| partition_relation(rel, shards))
                        .and_then(|parts| parts.into_iter().nth(i));
                    if let Some(frag) = frag {
                        cat.register(fragment_name(name), frag);
                    }
                }
                Engine::with_opts(cat, opts)
            })
            .collect();
        Ok(ShardedEngine {
            shared: Arc::new(ShardedShared {
                engines,
                coord: RwLock::new(0),
            }),
        })
    }

    /// Build a sharded engine by registering `rels[i]` under the
    /// relation name of `q`'s atom `i` — the sharded analogue of
    /// [`Engine::try_from_query_bindings`], with the same validation.
    pub fn try_from_query_bindings(
        q: &ConjunctiveQuery,
        rels: Vec<Relation>,
        shards: usize,
    ) -> Result<Self, EngineError> {
        if q.num_atoms() != rels.len() {
            return Err(EngineError::BindingCountMismatch {
                atoms: q.num_atoms(),
                relations: rels.len(),
            });
        }
        let mut catalog = Catalog::new();
        for (atom, rel) in q.atoms().iter().zip(rels) {
            if let Some(prev) = catalog.get(&atom.relation) {
                if *prev != rel {
                    return Err(EngineError::ConflictingBindings {
                        relation: atom.relation.clone(),
                    });
                }
            }
            catalog.register(atom.relation.clone(), rel);
        }
        ShardedEngine::new(catalog, shards)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shared.engines.len()
    }

    /// The shard engines (diagnostics and tests).
    pub fn shard_engines(&self) -> &[Engine] {
        &self.shared.engines
    }

    /// The cross-shard coordination epoch: bumped by every
    /// [`register`](Self::register) / [`remove`](Self::remove).
    pub fn epoch(&self) -> u64 {
        *self
            .shared
            .coord
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Register (or replace) a relation on **every** shard: the full
    /// relation under `name`, its hash fragments under `{name}#frag`.
    /// Runs under the coordination write lock, so concurrent prepares
    /// see either no shard updated or all of them (never a torn
    /// cross-shard catalog); per-shard epochs bump, invalidating cached
    /// plans and exactly the replaced relation's indexes on each shard.
    /// Streams already open keep their payload snapshots.
    pub fn register<S: Into<String>>(&self, name: S, rel: Relation) -> Result<(), EngineError> {
        let name = name.into();
        if name.contains('#') {
            return Err(EngineError::ReservedRelationName { relation: name });
        }
        let parts = partition_relation(&rel, self.num_shards());
        let mut epoch = self
            .shared
            .coord
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *epoch += 1;
        for (engine, part) in self.shared.engines.iter().zip(parts) {
            let (name, frag) = (name.clone(), fragment_name(&name));
            let rel = rel.clone();
            engine.update_catalog(move |c| {
                c.register(name, rel);
                c.register(frag, part);
            });
        }
        Ok(())
    }

    /// Append one batch to the named relation on **every** shard: the
    /// full batch joins `name`'s delta tail, the batch's hash fragments
    /// join `{name}#frag`'s. Runs under the coordination write lock
    /// (no torn cross-shard appends) but — like [`Engine::append`] —
    /// does **not** bump any epoch: per-shard invalidation is
    /// relation-scoped, so cached plans and warm indexes over other
    /// relations survive. Typed failures: unknown relation, batch
    /// arity mismatch, reserved `#` names.
    pub fn append(&self, name: &str, batch: Relation) -> Result<(), EngineError> {
        if name.contains('#') {
            return Err(EngineError::ReservedRelationName {
                relation: name.to_string(),
            });
        }
        let parts = partition_relation(&batch, self.num_shards());
        let coord = self
            .shared
            .coord
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let _ = *coord;
        for (engine, part) in self.shared.engines.iter().zip(parts) {
            engine.append_raw(name, batch.clone())?;
            engine.append_raw(&fragment_name(name), part)?;
        }
        Ok(())
    }

    /// Fold the named relation's pending deltas (full + fragment) into
    /// fresh base payloads on every shard. Returns `true` if any shard
    /// actually compacted.
    pub fn compact(&self, name: &str) -> Result<bool, EngineError> {
        let coord = self
            .shared
            .coord
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let _ = *coord;
        let mut compacted = false;
        for engine in &self.shared.engines {
            compacted |= engine.compact(name)?;
            compacted |= engine.compact(&fragment_name(name))?;
        }
        Ok(compacted)
    }

    /// Write-path counters for the sharded deployment. Appends,
    /// appended rows, and compactions are logical (every shard sees
    /// the same logical writes, so shard 0 speaks for all — fragment
    /// bookkeeping is never counted); invalidated plans and the terms
    /// their refreshes kept, extended and rebuilt are summed across
    /// shards, since each shard caches its own plans.
    pub fn write_stats(&self) -> WriteStats {
        let mut out = self.shared.engines[0].write_stats();
        for engine in &self.shared.engines[1..] {
            let w = engine.write_stats();
            out.invalidated_plans += w.invalidated_plans;
            out.terms_kept += w.terms_kept;
            out.terms_extended += w.terms_extended;
            out.terms_rebuilt += w.terms_rebuilt;
        }
        out
    }

    /// Remove a relation (full + fragment) from every shard, under the
    /// coordination write lock. Returns `true` if any shard held it.
    pub fn remove(&self, name: &str) -> bool {
        let mut epoch = self
            .shared
            .coord
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *epoch += 1;
        let mut removed = false;
        for engine in &self.shared.engines {
            let frag = fragment_name(name);
            let name = name.to_string();
            let hit = std::sync::atomic::AtomicBool::new(false);
            engine.update_catalog(|c| {
                if c.remove(&name).is_some() {
                    hit.store(true, std::sync::atomic::Ordering::Relaxed);
                }
                c.remove(&frag);
            });
            removed |= hit.load(std::sync::atomic::Ordering::Relaxed);
        }
        removed
    }

    /// The deterministic pivot atom for `cq`: the atom bound to the
    /// largest relation (ties to the lowest atom index) — the biggest
    /// scan is the one worth scattering.
    fn pivot_atom(&self, catalog: &Catalog, cq: &ConjunctiveQuery) -> Result<usize, EngineError> {
        if cq.num_atoms() == 0 {
            return Err(EngineError::EmptyQuery);
        }
        let mut pivot = 0usize;
        let mut best = 0usize;
        for (i, atom) in cq.atoms().iter().enumerate() {
            let len = catalog.lookup(&atom.relation)?.len();
            if i == 0 || len > best {
                pivot = i;
                best = len;
            }
        }
        Ok(pivot)
    }

    /// Prepare `cq` under `rank` on every shard, returning the union
    /// of the per-shard parts ([`PreparedQuery::parts`]): its streams
    /// merge into the canonical globally-ranked stream, its plan
    /// reports the original (un-scattered) query, and its epoch is the
    /// coordination epoch. Runs under the coordination read lock, so
    /// all per-shard prepares see the same logical catalog version.
    pub fn prepare(
        &self,
        cq: &ConjunctiveQuery,
        rank: RankSpec,
    ) -> Result<PreparedQuery, EngineError> {
        Ok(self.prepare_report(cq, rank)?.0)
    }

    /// [`prepare`](Self::prepare) plus aggregated provenance: a cache
    /// hit only if **every** shard's plan cache served its part, and
    /// the summed per-shard prepare wall time.
    pub fn prepare_report(
        &self,
        cq: &ConjunctiveQuery,
        rank: RankSpec,
    ) -> Result<(PreparedQuery, PrepareReport), EngineError> {
        let coord = self
            .shared
            .coord
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let catalog = self.shared.engines[0].catalog();
        let pivot = self.pivot_atom(&catalog, cq)?;
        let scattered = cq.with_atom_relation(pivot, fragment_name(&cq.atom(pivot).relation));
        let mut parts = Vec::with_capacity(self.num_shards());
        let mut report = PrepareReport {
            cache_hit: true,
            prepare_us: 0,
        };
        for engine in &self.shared.engines {
            let (part, r) = engine.prepare_cached_report(scattered.clone(), rank, engine.opts)?;
            report.cache_hit &= r.cache_hit;
            report.prepare_us += r.prepare_us;
            parts.push(part);
        }
        // The facade plan reports the *original* query; the scattered
        // rewrite is an internal addressing detail.
        let mut plan = parts[0].plan().clone();
        plan.query = cq.clone();
        Ok((PreparedQuery::union(Arc::new(plan), parts, *coord), report))
    }

    /// This sharded engine's shard-0 observability registry (the
    /// clock to hand [`PreparedQuery::stream_traced`]; per-shard
    /// registries are reachable via
    /// [`shard_engines`](Self::shard_engines)).
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        self.shared.engines[0].obs()
    }

    /// Prepare and stream in one step (the ad-hoc serving path; each
    /// shard's plan cache amortizes repeats). The stream carries the
    /// per-pull delay sampler when recording is enabled.
    pub fn stream(
        &self,
        cq: &ConjunctiveQuery,
        rank: RankSpec,
    ) -> Result<RankedStream, EngineError> {
        Ok(self.prepare(cq, rank)?.stream().sampled(self.obs()))
    }

    /// Render the plan for `cq` plus the shard fan-out per atom: the
    /// pivot atom scatters over hash fragments, every other atom reads
    /// its replicated relation on all shards.
    pub fn explain(&self, cq: &ConjunctiveQuery, rank: RankSpec) -> Result<String, EngineError> {
        let coord = self
            .shared
            .coord
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let _ = *coord;
        let catalog = self.shared.engines[0].catalog();
        let pivot = self.pivot_atom(&catalog, cq)?;
        let plan = self.shared.engines[0]
            .query(cq.clone())
            .rank_by(rank)
            .explain()?;
        let mut out = plan.explain();
        out.push_str(&format!("shard fan-out: {} shard(s)\n", self.num_shards()));
        for (i, atom) in cq.atoms().iter().enumerate() {
            let role = if i == pivot {
                "scatter (hash-partitioned pivot)"
            } else {
                "replicated"
            };
            out.push_str(&format!("  atom #{i} {}: {role}\n", atom.relation));
        }
        Ok(out)
    }

    /// Plan-cache counters summed across all shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut out = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
            capacity: 0,
        };
        for engine in &self.shared.engines {
            let s = engine.cache_stats();
            out.hits += s.hits;
            out.misses += s.misses;
            out.evictions += s.evictions;
            out.entries += s.entries;
            out.capacity += s.capacity;
        }
        out
    }

    /// Index-catalog counters summed across all shards (each shard has
    /// its own index catalog and budget).
    pub fn index_stats(&self) -> IndexStats {
        let mut out = IndexStats {
            hits: 0,
            misses: 0,
            builds: 0,
            evictions: 0,
            resident_bytes: 0,
            entries: 0,
            capacity_bytes: 0,
        };
        for engine in &self.shared.engines {
            let s = engine.index_stats();
            out.hits += s.hits;
            out.misses += s.misses;
            out.builds += s.builds;
            out.evictions += s.evictions;
            out.resident_bytes += s.resident_bytes;
            out.entries += s.entries;
            out.capacity_bytes += s.capacity_bytes;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankSpec;
    use anyk_query::cq::{path_query, triangle_query};
    use anyk_storage::{RelationBuilder, Schema};

    fn assert_sharing<T: Clone + Send + Sync>() {}

    #[test]
    fn sharded_engine_is_clone_send_sync() {
        assert_sharing::<ShardedEngine>();
    }

    fn edge_rel(rows: &[(i64, i64, f64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for &(x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    fn path_catalog() -> (ConjunctiveQuery, Catalog) {
        let q = path_query(2);
        let mut catalog = Catalog::new();
        catalog.register(
            "R1",
            edge_rel(&[(1, 2, 0.1), (1, 3, 0.2), (2, 4, 0.3), (5, 6, 0.4)]),
        );
        catalog.register(
            "R2",
            edge_rel(&[(2, 7, 0.5), (3, 7, 0.1), (4, 8, 0.2), (6, 9, 0.9)]),
        );
        (q, catalog)
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let (_, catalog) = path_catalog();
        match ShardedEngine::new(catalog, 0) {
            Err(EngineError::ZeroShards) => {}
            other => panic!("expected ZeroShards, got {other:?}"),
        }
    }

    #[test]
    fn reserved_relation_names_are_rejected() {
        let mut catalog = Catalog::new();
        catalog.register("R#frag", edge_rel(&[(1, 2, 0.0)]));
        match ShardedEngine::new(catalog, 2) {
            Err(EngineError::ReservedRelationName { relation }) => {
                assert_eq!(relation, "R#frag");
            }
            other => panic!("expected ReservedRelationName, got {other:?}"),
        }
        let (_, catalog) = path_catalog();
        let sharded = ShardedEngine::new(catalog, 2).unwrap();
        match sharded.register("bad#name", edge_rel(&[(1, 2, 0.0)])) {
            Err(EngineError::ReservedRelationName { .. }) => {}
            other => panic!("expected ReservedRelationName, got {other:?}"),
        }
    }

    #[test]
    fn sharded_stream_matches_canonical_single_engine_stream() {
        let (q, catalog) = path_catalog();
        let single = Engine::new(catalog.clone());
        for shards in [1usize, 2, 3, 5] {
            let sharded = ShardedEngine::new(catalog.clone(), shards).unwrap();
            for rank in [RankSpec::Sum, RankSpec::Max] {
                let want: Vec<_> = single
                    .query(q.clone())
                    .rank_by(rank)
                    .plan()
                    .unwrap()
                    .canonical_ties()
                    .collect();
                let got: Vec<_> = sharded.stream(&q, rank).unwrap().collect();
                assert_eq!(got, want, "shards={shards} rank={rank:?}");
            }
        }
    }

    #[test]
    fn cyclic_routes_shard_too() {
        let q = triangle_query();
        let rel = edge_rel(&[
            (1, 2, 0.1),
            (2, 3, 0.2),
            (3, 1, 0.3),
            (2, 1, 0.4),
            (3, 2, 0.5),
            (1, 3, 0.6),
            (4, 5, 0.7),
        ]);
        let single = Engine::try_from_query_bindings(&q, vec![rel.clone(); 3]).unwrap();
        let sharded = ShardedEngine::try_from_query_bindings(&q, vec![rel.clone(); 3], 3).unwrap();
        let want: Vec<_> = single
            .query(q.clone())
            .rank_by(RankSpec::Sum)
            .plan()
            .unwrap()
            .canonical_ties()
            .collect();
        let got: Vec<_> = sharded.stream(&q, RankSpec::Sum).unwrap().collect();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn explain_shows_fan_out_roles() {
        let (q, catalog) = path_catalog();
        let sharded = ShardedEngine::new(catalog, 4).unwrap();
        let text = sharded.explain(&q, RankSpec::Sum).unwrap();
        assert!(text.contains("shard fan-out: 4 shard(s)"), "{text}");
        assert!(text.contains("scatter (hash-partitioned pivot)"), "{text}");
        assert!(text.contains("replicated"), "{text}");
        // The facade explains the original query, not the rewrite.
        assert!(!text.contains(FRAGMENT_SUFFIX), "{text}");
    }

    #[test]
    fn register_updates_all_shards_and_bumps_epoch() {
        let (q, catalog) = path_catalog();
        let sharded = ShardedEngine::new(catalog, 3).unwrap();
        assert_eq!(sharded.epoch(), 0);
        let before: Vec<_> = sharded.stream(&q, RankSpec::Sum).unwrap().collect();

        // Replace R2 so path 1-3-7 disappears.
        sharded
            .register("R2", edge_rel(&[(2, 7, 0.5), (4, 8, 0.2)]))
            .unwrap();
        assert_eq!(sharded.epoch(), 1);
        let after: Vec<_> = sharded.stream(&q, RankSpec::Sum).unwrap().collect();
        assert!(after.len() < before.len());
        for engine in sharded.shard_engines() {
            assert!(engine.catalog().get("R2#frag").is_some());
        }

        assert!(sharded.remove("R2"));
        assert_eq!(sharded.epoch(), 2);
        assert!(sharded.stream(&q, RankSpec::Sum).is_err());
        assert!(!sharded.remove("R2"), "already gone");
    }

    #[test]
    fn open_streams_keep_their_snapshot_across_updates() {
        let (q, catalog) = path_catalog();
        let sharded = ShardedEngine::new(catalog, 2).unwrap();
        let want: Vec<_> = sharded.stream(&q, RankSpec::Sum).unwrap().collect();
        let mut stream = sharded.stream(&q, RankSpec::Sum).unwrap();
        let first = stream.next().unwrap();
        sharded.register("R1", edge_rel(&[(9, 9, 9.0)])).unwrap();
        let rest: Vec<_> = stream.collect();
        let mut got = vec![first];
        got.extend(rest);
        assert_eq!(got, want, "mid-stream update must not leak in");
    }

    #[test]
    fn sharded_append_matches_single_engine_and_counts_once() {
        let (q, catalog) = path_catalog();
        let single = Engine::new(catalog.clone());
        let sharded = ShardedEngine::new(catalog, 3).unwrap();

        match sharded.append("bad#name", edge_rel(&[(1, 2, 0.0)])) {
            Err(EngineError::ReservedRelationName { .. }) => {}
            other => panic!("expected ReservedRelationName, got {other:?}"),
        }

        let batch = edge_rel(&[(1, 7, 0.05), (9, 4, 0.6)]);
        single.append("R1", batch.clone()).unwrap();
        sharded.append("R1", batch).unwrap();
        assert_eq!(sharded.epoch(), 0, "appends never bump the coord epoch");

        let want: Vec<_> = single
            .prepare(q.clone(), RankSpec::Sum)
            .unwrap()
            .stream()
            .canonical_ties()
            .collect();
        let got: Vec<_> = sharded.stream(&q, RankSpec::Sum).unwrap().collect();
        assert_eq!(got, want, "delta-bearing sharded stream diverges");
        assert!(
            got.iter().any(|a| a.ints() == vec![9, 4, 8]),
            "the appended row must join: {got:?}"
        );

        let w = sharded.write_stats();
        assert_eq!(w.appends, 1, "logical appends counted once, not per shard");
        assert_eq!(w.appended_rows, 2);

        assert!(sharded.compact("R1").unwrap());
        assert!(!sharded.compact("R1").unwrap());
        let after: Vec<_> = sharded.stream(&q, RankSpec::Sum).unwrap().collect();
        assert_eq!(after, want, "compaction must not change answers");
        assert_eq!(sharded.write_stats().compactions, 1);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let (q, catalog) = path_catalog();
        let sharded = ShardedEngine::new(catalog, 2).unwrap();
        let single_capacity = Engine::new(Catalog::new()).cache_stats().capacity;
        assert_eq!(sharded.cache_stats().capacity, 2 * single_capacity);
        let _ = sharded.stream(&q, RankSpec::Sum).unwrap();
        let _ = sharded.stream(&q, RankSpec::Sum).unwrap();
        let stats = sharded.cache_stats();
        assert_eq!(stats.misses, 2, "one cold prepare per shard");
        assert_eq!(stats.hits, 2, "one warm prepare per shard");
        // Index capacity is per shard (each has its own catalog).
        let idx = sharded.index_stats();
        assert_eq!(
            idx.capacity_bytes,
            2 * anyk_storage::DEFAULT_INDEX_CATALOG_BYTES as u64
        );
    }
}
