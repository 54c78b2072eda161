//! A read-only hash partition of one catalog: N full [`Engine`]s whose
//! streams partition the answer multiset, queried through one
//! globally-ranked merged stream. Nothing writes to it — it is a
//! snapshot of the catalog it was built from — and nothing serves
//! through it: the service holds one [`Engine`]. It stays as a
//! partition-invariance harness (the oracle's sharded checks, the
//! benchmark's fan-in probe) until that probe goes.
//!
//! ## Fragment-and-replicate partitioning
//!
//! Naive per-relation partitioning breaks join completeness (a join
//! answer may combine rows that hashed to different shards). Instead,
//! every shard's catalog holds the **full** relation under its original
//! name *plus* that relation's hash fragment under the reserved name
//! `{name}#frag` (`#` cannot appear in a parsed identifier, so the
//! fragment namespace is unreachable from the wire). Both are built
//! from the relation's flattened content (base ⊎ pending deltas), so a
//! partition of a delta-bearing catalog answers what the catalog does.
//! At prepare time exactly one *pivot* atom — chosen deterministically
//! as the largest relation, ties to the lowest atom index — is
//! retargeted at the fragment name; all other atoms read their
//! replicated relations. Each answer binds exactly one pivot row, every
//! row lives in exactly one fragment, and duplicate rows co-locate
//! ([`anyk_storage::partition`]), so the shard streams *partition* the
//! answer multiset: disjoint, complete, no de-duplication needed.
//! Self-joins are safe because only one atom is rewritten.
//!
//! ## Deterministic cross-shard tie-break
//!
//! A sharded prepare is a plain [`PreparedQuery`] union over the
//! per-shard parts (see [`crate::merge`]): one tournament merge with
//! the canonical (cost, output tuple, member) tie-break, so the merged
//! stream is byte-identical to the single-engine stream's canonical
//! form ([`RankedStream::canonical_ties`](crate::RankedStream::canonical_ties))
//! at every shard count ≥ 2. With one shard there is nothing to
//! partition: no fragments are registered, no atom is scattered, and a
//! prepare is the shard's own — its native tie order, no merge.

use crate::error::EngineError;
use crate::prepared::PreparedQuery;
use crate::rank::RankSpec;
use crate::Engine;
use anyk_query::cq::ConjunctiveQuery;
use anyk_storage::{partition_relation, Catalog, Relation};
use std::sync::Arc;

/// The name `relation`'s hash fragment is registered under on every
/// shard of a `shards`-way partition — `None` with one shard, which
/// holds every relation whole.
fn fragment(relation: &str, shards: usize) -> Option<String> {
    (shards > 1).then(|| format!("{relation}#frag"))
}

/// N full [`Engine`] shards over one hash-partitioned catalog snapshot,
/// behind one globally-ranked prepare. `Clone + Send + Sync`: clones
/// share the shards.
#[derive(Clone)]
pub struct ShardedEngine {
    engines: Arc<[Engine]>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.engines.len())
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Partition `catalog` across `shards` engines with default options.
    ///
    /// Every relation is flattened (base ⊎ pending deltas) once and
    /// replicated to each shard under its original name (refcount
    /// bumps, no tuple copies) and, with two shards or more,
    /// hash-partitioned into per-shard fragments under `{name}#frag`.
    /// Each shard gets its own index catalog. Fails on zero shards or
    /// a relation name that already uses the reserved `#` marker.
    pub fn new(catalog: Catalog, shards: usize) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        if let Some(name) = catalog.names().filter(|name| name.contains('#')).min() {
            return Err(EngineError::ReservedRelationName {
                relation: name.to_string(),
            });
        }
        let flat = catalog.flattened();
        let mut forks: Vec<Catalog> = (0..shards)
            .map(|_| flat.fork_with_fresh_indexes())
            .collect();
        for name in flat.names() {
            if let (Some(frag), Some(rel)) = (fragment(name, shards), flat.get(name)) {
                for (fork, part) in forks.iter_mut().zip(partition_relation(rel, shards)) {
                    fork.register(frag.clone(), part);
                }
            }
        }
        Ok(ShardedEngine {
            engines: forks.into_iter().map(Engine::new).collect(),
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
        ShardedEngine::new(crate::bind_catalog(q, rels)?, shards)
    }

    /// The atom of `cq` a prepare scatters, and the fragment it reads
    /// instead of its relation: the atom bound to the largest relation
    /// (ties to the lowest atom index) — the biggest scan is the one
    /// worth scattering. `None` with one shard; the catalog is then not
    /// read, and the query runs as it is.
    fn scatter(&self, cq: &ConjunctiveQuery) -> Result<Option<(usize, String)>, EngineError> {
        let shards = self.engines.len();
        if shards == 1 || cq.atoms().is_empty() {
            return Ok(None);
        }
        let catalog = self.engines[0].catalog();
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
    /// reports the original (un-scattered) query. With one shard it is
    /// that shard's own prepare.
    pub fn prepare(
        &self,
        cq: &ConjunctiveQuery,
        rank: RankSpec,
    ) -> Result<PreparedQuery, EngineError> {
        let Some((pivot, frag)) = self.scatter(cq)? else {
            return self.engines[0].prepare(cq.clone(), rank);
        };
        let scattered = cq.with_atom_relation(pivot, frag);
        let parts = (self.engines.iter())
            .map(|engine| engine.prepare(scattered.clone(), rank))
            .collect::<Result<Vec<_>, _>>()?;
        // The facade plan reports the *original* query; the scattered
        // rewrite is an internal addressing detail.
        let mut plan = parts[0].plan().clone();
        plan.query = cq.clone();
        Ok(PreparedQuery::union(Arc::new(plan), parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for shards in [1, 2] {
            match ShardedEngine::new(catalog.clone(), shards) {
                Err(EngineError::ReservedRelationName { relation }) => {
                    assert_eq!(relation, "R#frag");
                }
                other => panic!("expected ReservedRelationName, got {other:?}"),
            }
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
                let got: Vec<_> = sharded.prepare(&q, rank).unwrap().stream().collect();
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
        let one = ShardedEngine::new(catalog, 1).unwrap();
        let catalog = one.engines[0].catalog();
        assert!(catalog.names().all(|n| !n.contains('#')), "no fragment");
        let prepared = one.prepare(&q, RankSpec::Sum).unwrap();
        assert!(prepared.stream_traced(engine.obs()).1.is_none(), "no merge");
        let want: Vec<_> = engine
            .prepare(q.clone(), RankSpec::Sum)
            .unwrap()
            .stream()
            .collect();
        let got: Vec<_> = prepared.stream().collect();
        assert_eq!(got, want, "the native stream, ties in native order");
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
        let got: Vec<_> = sharded
            .prepare(&q, RankSpec::Sum)
            .unwrap()
            .stream()
            .collect();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }
}
