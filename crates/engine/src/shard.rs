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
//! form ([`RankedStream::canonical_ties`]) at every shard count ≥ 2.
//!
//! ## One shard is the engine
//!
//! With one shard there is nothing to partition: no fragments are
//! registered, no atom is scattered, `explain` prints no fan-out, and
//! a prepare is the shard's own — its native tie order and its native
//! page fill, no merge. `ShardedEngine::from(engine)` wraps an
//! [`Engine`]'s handle as that one shard, so the engine and its
//! clones keep seeing the same catalog, plan cache and registry.

use crate::error::EngineError;
use crate::prepared::PreparedQuery;
use crate::rank::RankSpec;
use crate::stream::RankedStream;
use anyk_obs::ObsRegistry;
use anyk_query::cq::ConjunctiveQuery;
use anyk_storage::{partition_relation, Catalog, Relation};
use std::sync::{Arc, LockResult, PoisonError, RwLock};

use crate::{Appended, CacheStats, Engine, EngineOpts, PrepareReport, WriteStats};
use anyk_storage::IndexStats;

/// The reserved marker appended to a relation name to address its hash
/// fragment on a shard. `#` is not a legal identifier character in the
/// wire protocol, so client queries can never name a fragment directly.
pub const FRAGMENT_SUFFIX: &str = "#frag";

/// `name`, if it is a relation a caller may address: a `#` name is
/// reserved for the fragments this layer derives, so no write, compact
/// or remove may name one ([`EngineError::ReservedRelationName`]).
fn logical(name: &str) -> Result<&str, EngineError> {
    if name.contains('#') {
        return Err(EngineError::ReservedRelationName {
            relation: name.to_string(),
        });
    }
    Ok(name)
}

/// The name `relation`'s hash fragment is registered under on every
/// shard of a `shards`-way deployment — `None` with one shard, which
/// holds every relation whole. This is the one place the shard count
/// changes what a write, a prepare or an `explain` does.
fn fragment(relation: &str, shards: usize) -> Option<String> {
    (shards > 1).then(|| format!("{relation}{FRAGMENT_SUFFIX}"))
}

/// State shared by all clones of one [`ShardedEngine`].
struct ShardedShared {
    /// One full engine per shard, each over its own catalog fork with
    /// its own index catalog.
    engines: Vec<Engine>,
    /// Cross-shard write coordination. Writers (register, remove,
    /// append, compact) hold the write side while applying a write to
    /// *every* shard, so a prepare (read side) always sees all shards
    /// at the same logical version — no torn cross-shard catalogs.
    ///
    /// Lock order: `coord` is acquired before any per-shard catalog or
    /// cache lock (coord ≺ catalog ≺ cache ≺ cursor table).
    coord: RwLock<()>,
}

impl ShardedShared {
    /// The coordination lock, taken by `lock` — `RwLock::read` for a
    /// prepare or an `explain`, `RwLock::write` for a write applied to
    /// every shard in turn. A panic under the write guard at shard `k`
    /// leaves shards `0..k` with the write and the rest without it.
    /// Each shard's own plans stay fresh, since every shard applies
    /// its part through `Engine::write_catalog`'s one rule, but a
    /// union over the shards can then mix the two versions of the
    /// relation. The mix lasts until a `register` or `remove` of that
    /// relation rewrites every shard: a later `append` or `compact`
    /// applies to all shards alike and keeps it.
    fn lock_coord<'a, G>(&'a self, lock: impl FnOnce(&'a RwLock<()>) -> LockResult<G>) -> G {
        lock(&self.coord).unwrap_or_else(PoisonError::into_inner)
    }
}

/// N full [`Engine`] shards behind one globally-ranked query facade.
///
/// `Clone + Send + Sync`: clones are handles onto the same shard set,
/// so any number of threads may prepare, stream, and update
/// concurrently. Writes are coordinated: a relation update
/// re-partitions the relation and applies (full + fragment) to every
/// shard under the coordination write lock, and each shard drops and
/// refreshes exactly the plans that read what changed; streams opened
/// earlier keep their immutable snapshots (relation payloads are
/// `Arc`-shared), preserving snapshot isolation mid-stream.
#[derive(Clone)]
pub struct ShardedEngine {
    shared: Arc<ShardedShared>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.num_shards())
            .finish_non_exhaustive()
    }
}

/// One shard: `engine` itself. The handle is wrapped, not forked, so
/// `engine` and its clones see the same catalog, plan cache and
/// registry as this sharded engine does.
impl From<Engine> for ShardedEngine {
    fn from(engine: Engine) -> Self {
        ShardedEngine::over(vec![engine])
    }
}

impl ShardedEngine {
    /// Shard `catalog` across `shards` engines with default options.
    ///
    /// Every relation is replicated to each shard under its original
    /// name (refcount bumps, no tuple copies) and, with two shards or
    /// more, hash-partitioned into per-shard fragments under
    /// `{name}#frag`. Fails on zero shards or a relation name that
    /// already uses the reserved `#` marker.
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
        let mut names: Vec<&str> = catalog.names().collect();
        names.sort_unstable();
        for name in &names {
            logical(name)?;
        }
        // Each shard gets its own index catalog (fresh stats and
        // budget) but shares every relation payload. A relation is
        // partitioned once; shard `i` registers part `i`.
        let mut forks: Vec<Catalog> = (0..shards)
            .map(|_| catalog.fork_with_fresh_indexes())
            .collect();
        for name in names {
            if let (Some(frag), Some(rel)) = (fragment(name, shards), catalog.get(name)) {
                for (fork, part) in forks.iter_mut().zip(partition_relation(rel, shards)) {
                    fork.register(frag.clone(), part);
                }
            }
        }
        let engines = forks
            .into_iter()
            .map(|cat| Engine::with_opts(cat, opts))
            .collect();
        Ok(ShardedEngine::over(engines))
    }

    fn over(engines: Vec<Engine>) -> Self {
        ShardedEngine {
            shared: Arc::new(ShardedShared {
                engines,
                coord: RwLock::new(()),
            }),
        }
    }

    /// Build a sharded engine by registering `rels[i]` under the
    /// relation name of `q`'s atom `i` — the sharded analogue of
    /// [`Engine::try_from_query_bindings`], with the same validation.
    pub fn try_from_query_bindings(
        q: &ConjunctiveQuery,
        rels: Vec<Relation>,
        shards: usize,
    ) -> Result<Self, EngineError> {
        ShardedEngine::new(crate::bind_catalog(q, rels)?, shards)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shared.engines.len()
    }

    /// The shard engines (diagnostics and tests).
    pub fn shard_engines(&self) -> &[Engine] {
        &self.shared.engines
    }

    /// Each shard paired with its part of `rel`'s hash partition when
    /// `frag` names a fragment to hold it — with `None` otherwise.
    fn with_parts<'a>(
        &'a self,
        frag: Option<&str>,
        rel: &Relation,
    ) -> impl Iterator<Item = (&'a Engine, Option<Relation>)> + 'a {
        let parts = frag.map(|_| partition_relation(rel, self.num_shards()));
        let parts = parts.into_iter().flatten().map(Some);
        (self.shared.engines.iter()).zip(parts.chain(std::iter::repeat(None)))
    }

    /// Register (or replace) a relation on **every** shard: the full
    /// relation under `name`, its hash fragments under `{name}#frag`.
    /// Runs under the coordination write lock, so concurrent prepares
    /// see either no shard updated or all of them (never a torn
    /// cross-shard catalog); each shard drops and refreshes the cached
    /// plans that read the replaced relation and invalidates exactly
    /// its indexes. Streams already open keep their payload snapshots.
    pub fn register<S: Into<String>>(&self, name: S, rel: Relation) -> Result<(), EngineError> {
        let name = name.into();
        logical(&name)?;
        let frag = fragment(&name, self.num_shards());
        let shards = self.with_parts(frag.as_deref(), &rel);
        let _coord = self.shared.lock_coord(RwLock::write);
        for (engine, part) in shards {
            engine.update_catalog(|c| {
                c.register(name.clone(), rel.clone());
                if let (Some(frag), Some(part)) = (&frag, part) {
                    c.register(frag.clone(), part);
                }
            });
        }
        Ok(())
    }

    /// Append one batch to the named relation on **every** shard: the
    /// full batch joins `name`'s delta tail, the batch's hash fragments
    /// join `{name}#frag`'s. Runs under the coordination write lock
    /// (no torn cross-shard appends); like every write, it invalidates
    /// per shard only the plans that read what it changed, so cached
    /// plans and warm indexes over other relations survive. Returns the
    /// append's [`Appended`] outcome: every shard's logical copy takes
    /// the full batch, so every shard reports the same one. Typed
    /// failures: unknown relation, batch arity mismatch, reserved `#`
    /// names.
    pub fn append(&self, name: &str, batch: Relation) -> Result<Appended, EngineError> {
        let frag = fragment(logical(name)?, self.num_shards());
        let shards = self.with_parts(frag.as_deref(), &batch);
        let _coord = self.shared.lock_coord(RwLock::write);
        let mut appended = Appended {
            deltas: 0,
            compacted: false,
        };
        for (engine, part) in shards {
            appended = engine.append(name, batch.clone())?;
            if let (Some(frag), Some(part)) = (&frag, part) {
                // Fragment bookkeeping, not a logical write.
                engine.append_counted(frag, part, false)?;
            }
        }
        Ok(appended)
    }

    /// Fold the named relation's pending deltas (full + fragment) into
    /// fresh base payloads on every shard. Returns `true` if any shard
    /// actually compacted. Typed failures: unknown relation, reserved
    /// `#` names (refused before any shard is touched).
    pub fn compact(&self, name: &str) -> Result<bool, EngineError> {
        let frag = fragment(logical(name)?, self.num_shards());
        let _coord = self.shared.lock_coord(RwLock::write);
        let mut compacted = false;
        for engine in &self.shared.engines {
            compacted |= engine.compact(name)?;
            if let Some(frag) = &frag {
                compacted |= engine.compact_counted(frag, false)?;
            }
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
    /// The cached plans that read it fail to re-prepare and are gone.
    /// A reserved `#` name is refused with
    /// [`EngineError::ReservedRelationName`], and nothing is removed.
    pub fn remove(&self, name: &str) -> Result<bool, EngineError> {
        let name = logical(name)?;
        let _coord = self.shared.lock_coord(RwLock::write);
        let frag = fragment(name, self.num_shards());
        let mut removed = false;
        for engine in &self.shared.engines {
            let mut hit = false;
            engine.update_catalog(|c| {
                hit = c.remove(name).is_some();
                if let Some(frag) = &frag {
                    c.remove(frag);
                }
            });
            removed |= hit;
        }
        Ok(removed)
    }

    /// The atom of `cq` a prepare scatters, and the fragment it reads
    /// instead of its relation: the atom bound to the largest relation
    /// (ties to the lowest atom index) — the biggest scan is the one
    /// worth scattering. `None` when relations have no fragments; the
    /// catalog is then not read, and the query runs as it is.
    fn scatter(&self, cq: &ConjunctiveQuery) -> Result<Option<(usize, String)>, EngineError> {
        let shards = self.num_shards();
        let Some(first) = cq.atoms().first() else {
            return Ok(None);
        };
        // Every relation has a fragment, or none has.
        if fragment(&first.relation, shards).is_none() {
            return Ok(None);
        }
        let catalog = self.shared.engines[0].catalog();
        let mut pivot = 0usize;
        let mut best = 0usize;
        for (i, atom) in cq.atoms().iter().enumerate() {
            let len = catalog.lookup(&atom.relation)?.len();
            if i == 0 || len > best {
                pivot = i;
                best = len;
            }
        }
        Ok(fragment(&cq.atom(pivot).relation, shards).map(|frag| (pivot, frag)))
    }

    /// Prepare `cq` under `rank` on every shard, returning the union
    /// of the per-shard parts ([`PreparedQuery::parts`]): its streams
    /// merge into the canonical globally-ranked stream, its plan
    /// reports the original (un-scattered) query. Runs under the
    /// coordination read lock, so all per-shard prepares see the same
    /// logical catalog version.
    /// With one shard it is that shard's own prepare.
    pub fn prepare(
        &self,
        cq: &ConjunctiveQuery,
        rank: RankSpec,
    ) -> Result<PreparedQuery, EngineError> {
        Ok(self.prepare_report(cq.clone(), rank)?.0)
    }

    /// [`prepare`](Self::prepare) plus aggregated provenance: a cache
    /// hit only if **every** shard's plan cache served its part, and
    /// the summed per-shard prepare wall time. The query is taken by
    /// value: with one shard it becomes that shard's cache key as it
    /// is, and nothing of it or of the plan is copied.
    pub fn prepare_report(
        &self,
        cq: ConjunctiveQuery,
        rank: RankSpec,
    ) -> Result<(PreparedQuery, PrepareReport), EngineError> {
        let _coord = self.shared.lock_coord(RwLock::read);
        let Some((pivot, frag)) = self.scatter(&cq)? else {
            let shard = &self.shared.engines[0];
            return shard.prepare_cached_report(cq, rank, shard.opts);
        };
        let scattered = cq.with_atom_relation(pivot, frag);
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
        plan.query = cq;
        Ok((PreparedQuery::union(Arc::new(plan), parts), report))
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
    /// its replicated relation on all shards. With one shard there is
    /// no fan-out: the plan alone, as the shard renders it.
    pub fn explain(&self, cq: ConjunctiveQuery, rank: RankSpec) -> Result<String, EngineError> {
        let _coord = self.shared.lock_coord(RwLock::read);
        let scatter = self.scatter(&cq)?;
        let mut fan_out = String::new();
        if let Some((pivot, _)) = scatter {
            fan_out = format!("shard fan-out: {} shard(s)\n", self.num_shards());
            for (i, atom) in cq.atoms().iter().enumerate() {
                let role = if i == pivot {
                    "scatter (hash-partitioned pivot)"
                } else {
                    "replicated"
                };
                fan_out.push_str(&format!("  atom #{i} {}: {role}\n", atom.relation));
            }
        }
        let plan = self.shared.engines[0].query(cq).rank_by(rank).explain()?;
        Ok(plan.explain() + &fan_out)
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
        for shards in [1, 2] {
            let (_, catalog) = path_catalog();
            let sharded = ShardedEngine::new(catalog, shards).unwrap();
            match sharded.register("bad#name", edge_rel(&[(1, 2, 0.0)])) {
                Err(EngineError::ReservedRelationName { .. }) => {}
                other => panic!("expected ReservedRelationName, got {other:?}"),
            }
            match sharded.append("R1#frag", edge_rel(&[(1, 2, 0.0)])) {
                Err(EngineError::ReservedRelationName { .. }) => {}
                other => panic!("expected ReservedRelationName, got {other:?}"),
            }
            assert_eq!(sharded.write_stats(), WriteStats::default());
        }
    }

    #[test]
    fn fragment_names_are_refused_by_remove_and_compact() {
        let (q, catalog) = path_catalog();
        for shards in [1, 2] {
            let sharded = ShardedEngine::new(catalog.clone(), shards).unwrap();
            sharded.append("R1", edge_rel(&[(2, 3, 0.5)])).unwrap();
            let read = || -> Vec<_> {
                let stream = sharded.stream(&q, RankSpec::Sum).unwrap();
                stream.canonical_ties().collect()
            };
            let (want, stats) = (read(), sharded.write_stats());
            for refused in [
                sharded.remove("R1#frag").map(drop),
                sharded.compact("R1#frag").map(drop),
            ] {
                match refused {
                    Err(EngineError::ReservedRelationName { relation }) => {
                        assert_eq!(relation, "R1#frag");
                    }
                    other => panic!("expected ReservedRelationName, got {other:?}"),
                }
            }
            // Nothing moved: R1 still prepares, on every shard alike,
            // and its own compaction still folds every shard's delta.
            assert_eq!(sharded.write_stats(), stats);
            assert_eq!(read(), want, "{shards} shard(s)");
            assert!(sharded.compact("R1").unwrap());
            assert_eq!(read(), want, "{shards} shard(s), compacted");
        }
    }

    #[test]
    fn sharded_stream_matches_canonical_single_engine_stream() {
        let (q, catalog) = path_catalog();
        let single = Engine::new(catalog.clone());
        for shards in [1usize, 2, 3, 5, 8] {
            let sharded = ShardedEngine::new(catalog.clone(), shards).unwrap();
            for rank in [RankSpec::Sum, RankSpec::Max] {
                let native = single.query(q.clone()).rank_by(rank).plan().unwrap();
                // One shard is the engine: its native stream, ties and
                // all. More merge into the canonical one.
                let want: Vec<_> = if shards == 1 {
                    native.collect()
                } else {
                    native.canonical_ties().collect()
                };
                let got: Vec<_> = sharded.stream(&q, rank).unwrap().collect();
                assert_eq!(got, want, "shards={shards} rank={rank:?}");
            }
        }
    }

    #[test]
    fn one_shard_is_its_engine() {
        // Every answer ties with another, so a merge would reorder them.
        let q = path_query(2);
        let mut catalog = Catalog::new();
        catalog.register("R1", edge_rel(&[(3, 1, 0.5), (2, 1, 0.5), (1, 1, 0.5)]));
        catalog.register("R2", edge_rel(&[(1, 9, 0.5), (1, 8, 0.5)]));
        let engine = Engine::new(catalog.clone());
        let sharded = ShardedEngine::new(catalog.clone(), 1).unwrap();
        let wrapped = ShardedEngine::from(engine.clone());
        for one in [&sharded, &wrapped] {
            let names: Vec<String> = one.shard_engines()[0]
                .catalog()
                .names()
                .map(str::to_string)
                .collect();
            assert!(names.iter().all(|n| !n.contains('#')), "{names:?}");
            let prepared = one.prepare(&q, RankSpec::Sum).unwrap();
            assert!(prepared.stream_traced(one.obs()).1.is_none(), "no merge");
            let want: Vec<_> = engine
                .prepare(q.clone(), RankSpec::Sum)
                .unwrap()
                .stream()
                .collect();
            let got: Vec<_> = prepared.stream().collect();
            assert_eq!(got, want, "the native stream, ties in native order");
            let explained = one.explain(q.clone(), RankSpec::Sum).unwrap();
            let plan = engine.query(q.clone()).explain().unwrap().explain();
            assert_eq!(explained, plan, "no fan-out block");
        }
        // The wrapped handle is the engine's: a write through it is the
        // engine's write, counted once.
        wrapped.append("R1", edge_rel(&[(4, 1, 0.25)])).unwrap();
        assert_eq!(engine.write_stats().appends, 1);
        assert_eq!(engine.catalog().entry("R1").unwrap().deltas().len(), 1);

        // Under the same writes a one-shard engine counts what a plain
        // engine counts: no fragment bookkeeping shows.
        let plain = Engine::new(catalog.clone());
        let sharded = ShardedEngine::new(catalog, 1).unwrap();
        plain.prepare(q.clone(), RankSpec::Sum).unwrap();
        sharded.prepare(&q, RankSpec::Sum).unwrap();
        for (name, rows) in [("R1", &[(4, 1, 0.25)][..]), ("R2", &[(1, 7, 0.75)])] {
            plain.append(name, edge_rel(rows)).unwrap();
            sharded.append(name, edge_rel(rows)).unwrap();
        }
        assert!(plain.compact("R1").unwrap());
        assert!(sharded.compact("R1").unwrap());
        assert_eq!(sharded.write_stats(), plain.write_stats());
        assert_ne!(plain.write_stats().terms_rebuilt, 0);
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
        let text = sharded.explain(q, RankSpec::Sum).unwrap();
        assert!(text.contains("shard fan-out: 4 shard(s)"), "{text}");
        assert!(text.contains("scatter (hash-partitioned pivot)"), "{text}");
        assert!(text.contains("replicated"), "{text}");
        // The facade explains the original query, not the rewrite.
        assert!(!text.contains(FRAGMENT_SUFFIX), "{text}");
    }

    #[test]
    fn register_updates_all_shards_and_refreshes_readers() {
        let (q, catalog) = path_catalog();
        let sharded = ShardedEngine::new(catalog, 3).unwrap();
        let before: Vec<_> = sharded.stream(&q, RankSpec::Sum).unwrap().collect();
        assert_eq!(before.len(), 4);

        // Replace R2 so paths 1-3-7 and 5-6-9 disappear.
        sharded
            .register("R2", edge_rel(&[(2, 7, 0.5), (4, 8, 0.2)]))
            .unwrap();
        let (prepared, report) = sharded.prepare_report(q.clone(), RankSpec::Sum).unwrap();
        assert!(report.cache_hit, "every shard refreshed its plan");
        let after: Vec<_> = prepared.stream().map(|a| a.ints()).collect();
        assert_eq!(after, [[2, 4, 8], [1, 2, 7]]);
        for engine in sharded.shard_engines() {
            assert!(engine.catalog().get("R2#frag").is_some());
        }

        assert!(sharded.remove("R2").unwrap());
        assert_eq!(sharded.cache_stats().entries, 0, "no plan over R2 is left");
        assert!(sharded.stream(&q, RankSpec::Sum).is_err());
        assert!(!sharded.remove("R2").unwrap(), "already gone");
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
    fn sharded_append_reports_the_logical_relations_outcome() {
        let (_, catalog) = path_catalog();
        let sharded = ShardedEngine::new(catalog, 3).unwrap();
        // Half of MIN_COMPACT_ROWS a batch: the second crosses the
        // threshold of the full copy on every shard; the fragments,
        // which hold a third each, never do and are not reported.
        let half = |from: i64| {
            let rows = anyk_storage::MIN_COMPACT_ROWS as i64 / 2;
            edge_rel(&(from..from + rows).map(|u| (u, 1, 0.5)).collect::<Vec<_>>())
        };
        let outcome = |deltas, compacted| Appended { deltas, compacted };
        assert_eq!(sharded.append("R1", half(0)).unwrap(), outcome(1, false));
        assert_eq!(sharded.append("R1", half(1000)).unwrap(), outcome(0, true));
        assert_eq!(sharded.append("R1", half(2000)).unwrap(), outcome(1, false));
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
