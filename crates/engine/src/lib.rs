//! # anyk-engine — the unified entry point for ranked enumeration
//!
//! The paper's central promise (*Optimal Join Algorithms Meet Top-k*,
//! SIGMOD 2020) is a single contract: **answers arrive in ranking
//! order, any `k`, with optimal time-to-k**. This crate is that
//! contract as an API. Callers describe *what* they want — a
//! conjunctive query over a catalog, ranked by a runtime-chosen
//! function — and the planner decides *how*: GYO + T-DP for acyclic
//! queries, the specialized width-1.5 plan for triangles, the
//! union-of-trees plan for every longer simple cycle, GHD
//! decompositions for everything else.
//!
//! ## Serving model
//!
//! The paper splits ranked enumeration into `O~(n^w)` **preprocessing**
//! and cheap **per-answer delay**; the engine splits the API the same
//! way. [`Engine::prepare`] routes and preprocesses exactly once and
//! returns a [`PreparedQuery`] whose [`stream`](PreparedQuery::stream)
//! spawns any number of independent ranked streams — preprocessing is
//! never repeated. The ad-hoc path `query(..).plan()` is backed by an
//! internal cache keyed on (query signature, ranking, batch-ness), so
//! repeated ad-hoc queries amortize automatically. `Engine` is
//! `Clone + Send + Sync`: clones are handles to the same catalog and
//! cache, and any number of threads may plan and stream concurrently.
//! Catalog updates go through [`Engine::update_catalog`], which bumps
//! an epoch — cached plans from older epochs are never served again.
//!
//! ```
//! use anyk_engine::{Engine, RankSpec};
//! use anyk_query::cq::QueryBuilder;
//! use anyk_storage::{Catalog, RelationBuilder, Schema};
//!
//! let mut catalog = Catalog::new();
//! let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
//! r.push_ints(&[1, 10], 0.3);
//! r.push_ints(&[2, 10], 0.1);
//! catalog.register("R", r.finish());
//! let mut s = RelationBuilder::new(Schema::new(["b", "c"]));
//! s.push_ints(&[10, 100], 0.5);
//! catalog.register("S", s.finish());
//!
//! let engine = Engine::new(catalog);
//! let q = QueryBuilder::new()
//!     .atom("R", &["a", "b"])
//!     .atom("S", &["b", "c"])
//!     .build();
//! let mut stream = engine.query(q).rank_by(RankSpec::Sum).plan().unwrap();
//! let top2 = stream.top_k(2);
//! assert_eq!(top2.len(), 2);
//! assert!(top2[0].cost <= top2[1].cost);
//! ```

mod error;
mod merge;
mod plan;
mod prepared;
mod rank;
mod shard;
mod stream;

pub use error::EngineError;
pub use merge::ShardFanIn;
pub use plan::{AnyKVariant, EngineOpts, IndexUse, Plan, Route};
pub use prepared::PreparedQuery;
pub use rank::{Cost, IntoCost, RankSpec};
pub use shard::{ShardedEngine, FRAGMENT_SUFFIX};
pub use stream::{RankedAnswer, RankedStream};

pub use anyk_core::slab::AnswerSlab;

pub use anyk_obs::ObsRegistry;

use anyk_core::decomposed::auto_decomposition;
use anyk_join::cycle::cycle_trie_requests;
use anyk_join::decomposed::ghd_trie_requests;
use anyk_join::generic_join_trie_requests;
use anyk_query::cq::{triangle_query, ConjunctiveQuery};
use anyk_query::cycles::{cycle_heavy_threshold, cycle_length, cycle_submodular_width};
use anyk_query::gyo::{gyo_reduce, GyoResult};
use anyk_storage::{Catalog, FxHashMap, IndexCatalog, IndexProvider, IndexStats, Relation};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// The unified, planner-routed engine for ranked enumeration.
///
/// # Which engine runs when (the routing table)
///
/// | query shape | route | algorithm | preprocessing | delay |
/// |---|---|---|---|---|
/// | α-acyclic (GYO succeeds) | [`Route::Acyclic`] | T-DP + ANYK-PART / ANYK-REC / batch | `O~(n)` | `O~(1)` |
/// | triangle `R(a,b)⋈S(b,c)⋈T(c,a)` | [`Route::Triangle`] | Generic-Join materialization + shared sorted answers | `O~(n^1.5)` | `O(1)` |
/// | simple ℓ-cycle, ℓ ≥ 4 | [`Route::Cycle`] | submodular-width union-of-trees (heavy/light split at `n^(1/⌈ℓ/2⌉)`), k-way merge | `O~(n^(2−1/⌈ℓ/2⌉))` | `O~(1)` |
/// | any other cyclic query | [`Route::Decomposed`] | GHD bags (exact fhw ≤ 9 vars, greedy beyond) + any-k | `O~(n^fhw)` | `O~(1)` |
///
/// The ranking function is a runtime value ([`RankSpec`]); the engine
/// monomorphizes internally. Lexicographic ranking is order-sensitive:
/// on the acyclic route its weights serialize in join-tree pre-order,
/// while cyclic routes (whose any-k case plans serialize atoms in
/// per-case orders) run it off the materialized answer set with
/// weights serialized in **canonical atom order** — the route's
/// `Batch`-style artifact, so the answer order is still exact.
///
/// All failure modes are typed ([`EngineError`]): unknown relations,
/// arity mismatches, malformed bindings. The planner never panics on
/// user input.
///
/// # Sharing and concurrency
///
/// `Engine` is `Clone + Send + Sync`. A clone is a *handle* to the same
/// underlying state — catalog, plan cache, epoch — so cloning an engine
/// into N worker threads gives all of them the same amortization.
/// Relations themselves are `Arc`-backed handles
/// ([`anyk_storage::Relation`]): resolving a query's atoms is a
/// refcount bump per atom, never an `O(n)` copy.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<EngineShared>,
    opts: EngineOpts,
}

/// State shared by all clones of one [`Engine`].
struct EngineShared {
    /// The catalog plus its epoch, swapped copy-on-write under a write
    /// lock by [`Engine::update_catalog`]. Reads take a snapshot
    /// (`Arc` clone) and never block behind preprocessing.
    catalog: RwLock<CatalogState>,
    /// Prepared plans keyed by (query signature, ranking, batch-ness).
    /// Entries record the epoch they were prepared at and are served
    /// only while the catalog is still at that epoch. Bounded: see
    /// [`PlanCache`].
    cache: Mutex<PlanCache>,
    /// Engine-side telemetry: prepare-time and sampled per-pull delay
    /// histograms plus the injected clock. In a sharded deployment
    /// each shard engine carries its own registry; the server merges
    /// their histograms bucket-wise for `STATS`.
    obs: Arc<ObsRegistry>,
    /// Write-path counters ([`Engine::write_stats`]), shared by all
    /// clones. Plain relaxed atomics: monotone counters, no ordering
    /// dependencies.
    writes: WriteCounters,
}

/// The atomics behind [`WriteStats`].
#[derive(Default)]
struct WriteCounters {
    appends: std::sync::atomic::AtomicU64,
    appended_rows: std::sync::atomic::AtomicU64,
    compactions: std::sync::atomic::AtomicU64,
    invalidated_plans: std::sync::atomic::AtomicU64,
    terms_kept: std::sync::atomic::AtomicU64,
    terms_extended: std::sync::atomic::AtomicU64,
    terms_rebuilt: std::sync::atomic::AtomicU64,
}

/// A snapshot of the engine's write-path counters
/// ([`Engine::write_stats`]): appends accepted, rows appended,
/// compactions run (explicit and threshold-triggered), cached plans
/// dropped by relation-scoped invalidation, and what refreshing those
/// plans did to each of their terms. Fragment appends in a sharded
/// deployment are bookkeeping, not logical writes, and are not
/// counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteStats {
    /// Append batches accepted (empty batches included).
    pub appends: u64,
    /// Total rows appended.
    pub appended_rows: u64,
    /// Delta-folding compactions that actually ran.
    pub compactions: u64,
    /// Cached plans dropped because a relation they read was appended
    /// to (or compacted under them).
    pub invalidated_plans: u64,
    /// Terms a refresh took over from the invalidated plan as they
    /// were: every relation they read still has the payloads they were
    /// built over (the all-base term after an append, and the delta
    /// terms of the atoms before the appended one).
    pub terms_kept: u64,
    /// Materialized terms a refresh extended by the join over the new
    /// batches alone.
    pub terms_extended: u64,
    /// Terms a refresh built from their relations: T-DP terms, terms
    /// that changed in two positions (self-joins), terms over a
    /// compacted base, and an atom's first delta term.
    pub terms_rebuilt: u64,
}

/// What one [`Engine::append`] left its relation with, read under the
/// catalog write lock that applied it: a concurrent write, to this
/// relation or any other, cannot show through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Appended {
    /// The relation's delta batches after this append (0 when it
    /// compacted).
    pub deltas: usize,
    /// Whether this append tripped threshold compaction.
    pub compacted: bool,
}

/// Default plan-cache capacity: generous enough that steady workloads
/// (a fixed set of query shapes) never evict, small enough that a
/// stream of distinct ad-hoc shapes cannot grow memory without bound.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// The bounded LRU store behind the engine's plan cache.
///
/// Eviction policy (when an insert exceeds `capacity`): the
/// least-recently-used entry holding **materialized answers** (the
/// triangle route and `Batch` plans — full answer sets, the heaviest
/// residents) is evicted first; only when no such entry exists does
/// the overall LRU entry go. Epoch invalidation ([`Engine::update_catalog`])
/// still purges everything at once.
struct PlanCache {
    map: FxHashMap<CacheKey, CacheSlot>,
    capacity: usize,
    /// Monotone use counter backing the LRU order.
    tick: u64,
    /// Lookups served from the cache (epoch-valid entries only).
    hits: u64,
    /// Lookups that fell through to a fresh prepare — cold keys,
    /// epoch-stale entries, and capacity-evicted entries alike.
    misses: u64,
    /// Entries removed by the capacity bound (not epoch purges).
    evictions: u64,
}

/// A snapshot of the engine's plan-cache counters
/// ([`Engine::cache_stats`]): how well the prepare-once/execute-many
/// amortization is actually working for the current workload.
///
/// `hits`/`misses` count [`prepare`](Engine::prepare)/
/// [`plan`](QueryRequest::plan) lookups (an epoch-stale entry counts as
/// a miss: it must be re-prepared). `evictions` counts entries removed
/// by the capacity bound — epoch purges ([`Engine::update_catalog`])
/// are invalidations, not evictions, and are not counted. `entries` is
/// the current resident count, `capacity` the configured bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh prepare.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Prepared plans currently resident.
    pub entries: usize,
    /// The configured capacity (`0` = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Hit rate over all lookups so far (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheSlot {
    prepared: PreparedQuery,
    last_used: u64,
    /// The relations this plan reads, with the source payload ids
    /// (base + deltas, in order) each had at prepare time. A slot is
    /// served only while every dependency still has exactly these
    /// sources — so an [`Engine::append`] invalidates precisely the
    /// plans that read the appended relation, even if a racing prepare
    /// inserts a stale entry after the eager purge. They are also the
    /// record of what each term of `prepared` was built over: a term
    /// reads, per atom position, one [`TermRead`] slice of these ids.
    deps: Vec<(String, Vec<u64>)>,
    /// The options the plan was prepared under — with the key's query
    /// and ranking, the exact prepare inputs: the write path re-prepares
    /// (refreshes) a plan right after invalidating it, so readers keep
    /// hitting the cache instead of absorbing the rebuild.
    opts: EngineOpts,
}

/// What the write path hands the prepare that refreshes a plan: the
/// terms of the entry it just invalidated (none when a compaction
/// swapped the base under every one of them), the payload ids they
/// were built over, and whether the terms of the refresh are counted
/// in [`WriteStats`]. The terms are owned, so that one the refresh
/// does not take over is freed before its replacement is built.
struct Refresh<'a> {
    stale: Vec<Option<PreparedQuery>>,
    deps: &'a [(String, Vec<u64>)],
    counted: bool,
}

/// What a term of the telescoped union reads of one atom's sources
/// `[base, δ₁…δ_j]`: the base `B`, the full content `F` = base ⊎
/// deltas, or the delta rows `D`.
#[derive(Clone, Copy)]
enum TermRead {
    Base,
    Full,
    Delta,
}

impl TermRead {
    /// What `term` — `None` the all-base term, `Some(i)` atom `i`'s
    /// delta term `(F_1, …, F_{i-1}, D_i, B_{i+1}, …, B_m)` — reads at
    /// atom position `pos`.
    fn of(term: Option<usize>, pos: usize) -> TermRead {
        match term {
            Some(i) if pos < i => TermRead::Full,
            Some(i) if pos == i => TermRead::Delta,
            _ => TermRead::Base,
        }
    }

    /// The part of `sources` (`[base, δ₁…δ_j]`, payloads or their ids)
    /// this read covers.
    fn slice<T>(self, sources: &[T]) -> &[T] {
        match self {
            TermRead::Base => &sources[..1],
            TermRead::Full => sources,
            TermRead::Delta => &sources[1..],
        }
    }
}

impl Refresh<'_> {
    /// Take the invalidated entry's `term` of `cq`, if the payloads it
    /// was built over are still what `live` has or a prefix of it:
    /// with `None` when they are the same at every atom position — the
    /// term is what a build would produce — and with `Some((pos,
    /// from))` when position `pos` alone has more, its sources from
    /// `from` on being batches appended since. `None` — and the term,
    /// if there was one, dropped — for a term the entry never had (the
    /// atom had no deltas yet), one whose base a compaction swapped,
    /// one that grew in two positions (a self-join), or an entry from
    /// another epoch.
    fn take_term(
        &mut self,
        cq: &ConjunctiveQuery,
        live: &[ResolvedAtom],
        epoch: u64,
        term: Option<usize>,
    ) -> Option<(PreparedQuery, Option<(usize, usize)>)> {
        let deps = self.deps;
        let was = |pos: usize| {
            let name = &cq.atom(pos).relation;
            let (_, ids) = deps.iter().find(|(n, _)| n == name)?;
            Some(&ids[..])
        };
        // The entry's terms are the all-base term, then one per atom
        // that had deltas, in atom order.
        let had_deltas = |pos: usize| was(pos).is_some_and(|ids| ids.len() > 1);
        let index = match term {
            None => 0,
            Some(i) if had_deltas(i) => 1 + (0..i).filter(|&j| had_deltas(j)).count(),
            Some(_) => return None,
        };
        let old = self.stale.get_mut(index)?.take()?;
        if old.epoch() != epoch {
            return None;
        }
        let mut grew = None;
        for (pos, atom) in live.iter().enumerate() {
            let read = TermRead::of(term, pos);
            let (was, now) = (read.slice(was(pos)?), read.slice(&atom.sources));
            let prefix = was.len() <= now.len()
                && (was.iter().zip(now)).all(|(id, rel)| *id == rel.payload_id());
            let more = was.len() < now.len();
            if !prefix || (more && grew.is_some()) {
                return None;
            }
            if more {
                grew = Some((pos, was.len()));
            }
        }
        Some((old, grew))
    }
}

/// Is every dependency fingerprint still current in `catalog`?
fn deps_current(catalog: &Catalog, deps: &[(String, Vec<u64>)]) -> bool {
    deps.iter().all(|(name, ids)| {
        catalog.entry(name).is_some_and(|e| {
            e.sources()
                .map(Relation::payload_id)
                .eq(ids.iter().copied())
        })
    })
}

/// The dependency fingerprint for `cq` against `catalog`: one entry
/// per distinct relation name the query reads, with its current
/// source payload ids.
fn query_deps(catalog: &Catalog, cq: &ConjunctiveQuery) -> Vec<(String, Vec<u64>)> {
    let mut deps: Vec<(String, Vec<u64>)> = Vec::new();
    for atom in cq.atoms() {
        if deps.iter().any(|(n, _)| n == &atom.relation) {
            continue;
        }
        if let Some(e) = catalog.entry(&atom.relation) {
            deps.push((atom.relation.clone(), e.source_ids()));
        }
    }
    deps
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            map: FxHashMap::default(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a prepared plan, refreshing its LRU position on a hit.
    fn get(&mut self, key: &CacheKey) -> Option<&CacheSlot> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            &*slot
        })
    }

    /// Look up without refreshing the LRU position — for speculative
    /// probes (the triangle batch/any-k normalization) that may not
    /// end up serving the entry.
    fn peek(&self, key: &CacheKey) -> Option<&CacheSlot> {
        self.map.get(key)
    }

    /// Refresh an entry's LRU position after a [`peek`](Self::peek)
    /// turned into an actual serve.
    fn touch(&mut self, key: &CacheKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.map.get_mut(key) {
            slot.last_used = tick;
        }
    }

    /// Insert (or replace) an entry, then evict down to capacity —
    /// LRU materialized-answer entries first. The just-inserted entry
    /// is never its own victim (a hot materialized plan must be
    /// retainable even when every other resident is cheap), so a
    /// capacity ≥ 1 always caches the newest plan. A capacity of 0
    /// disables caching entirely.
    fn insert(
        &mut self,
        key: CacheKey,
        prepared: PreparedQuery,
        deps: Vec<(String, Vec<u64>)>,
        opts: EngineOpts,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(
            key.clone(),
            CacheSlot {
                prepared,
                last_used: tick,
                deps,
                opts,
            },
        );
        self.evict_to_capacity(Some(&key));
    }

    /// Drop every entry whose dependency set includes `relation` —
    /// the relation-scoped invalidation behind [`Engine::append`].
    /// Returns the removed entries themselves: the write path refreshes
    /// each from its key and `opts`, and takes over from its `prepared`
    /// whatever the write left valid. These are invalidations, not
    /// capacity evictions, and do not count as such.
    fn invalidate_relation(&mut self, relation: &str) -> Vec<(CacheKey, CacheSlot)> {
        let reads = |slot: &CacheSlot| slot.deps.iter().any(|(name, _)| name == relation);
        self.map.extract_if(|_, slot| reads(slot)).collect()
    }

    /// Pick and remove victims until the map fits `capacity`.
    ///
    /// Within each round the most-recently-used candidate is also
    /// spared (a hot materialized plan must not be sacrificed to every
    /// cold insert just because it is the only heavy resident — the
    /// materialized-first preference only applies to entries that are
    /// not the current hottest), falling back to it only when it is
    /// the sole evictable entry.
    fn evict_to_capacity(&mut self, protect: Option<&CacheKey>) {
        while self.map.len() > self.capacity {
            let candidates = || self.map.iter().filter(|(k, _)| Some(*k) != protect);
            let mru = candidates().map(|(_, s)| s.last_used).max();
            let cold = || candidates().filter(|(_, s)| Some(s.last_used) != mru);
            let victim = cold()
                .filter(|(_, s)| s.prepared.holds_materialized_answers())
                .min_by_key(|(_, s)| s.last_used)
                .or_else(|| cold().min_by_key(|(_, s)| s.last_used))
                .or_else(|| candidates().min_by_key(|(_, s)| s.last_used))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.map.remove(&k);
                    self.evictions += 1;
                }
                None => break,
            };
        }
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if capacity == 0 {
            self.evictions += self.map.len() as u64;
            self.map.clear();
        } else {
            self.evict_to_capacity(None);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[derive(Debug)]
struct CatalogState {
    catalog: Arc<Catalog>,
    epoch: u64,
}

/// Cache key for prepared plans: the query itself, hashed and compared
/// structurally — a lookup renders and copies nothing. The `batch` flag
/// is part of the key because batch plans prepare a different artifact
/// (materialized sorted answers) than the any-k variants (T-DP state) —
/// while all PART successor orders and REC share one entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    cq: ConjunctiveQuery,
    rank: RankSpec,
    batch: bool,
}

impl CacheKey {
    fn new(cq: ConjunctiveQuery, rank: RankSpec, opts: EngineOpts) -> Self {
        CacheKey {
            cq,
            rank,
            batch: matches!(opts.variant, AnyKVariant::Batch),
        }
    }
}

// The serving contract: one engine / one prepared query, any number of
// threads. Enforced at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<Relation>();
    assert_send_sync::<Catalog>();
};

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("epoch", &self.catalog_epoch())
            .field("cached_plans", &self.cached_plans())
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// An engine over `catalog` with default options
    /// (ANYK-PART(Eager) over successor orders shared by all streams).
    pub fn new(catalog: Catalog) -> Self {
        Engine::with_opts(catalog, EngineOpts::default())
    }

    /// An engine with explicit execution options. Observability comes
    /// from the environment (`ANYK_OBS=off` disables recording); use
    /// [`with_obs`](Self::with_obs) to inject a registry — e.g. one on
    /// a deterministic clock — instead.
    pub fn with_opts(catalog: Catalog, opts: EngineOpts) -> Self {
        Engine::with_obs(catalog, opts, Arc::new(ObsRegistry::from_env()))
    }

    /// An engine with explicit options **and** an injected
    /// observability registry (clock, histograms, enable switch).
    pub fn with_obs(catalog: Catalog, opts: EngineOpts, obs: Arc<ObsRegistry>) -> Self {
        Engine {
            shared: Arc::new(EngineShared {
                catalog: RwLock::new(CatalogState {
                    catalog: Arc::new(catalog),
                    epoch: 0,
                }),
                cache: Mutex::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
                obs,
                writes: WriteCounters::default(),
            }),
            opts,
        }
    }

    /// This engine's observability registry (shared by all clones).
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.shared.obs
    }

    /// Set the plan-cache capacity (default
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`]): at most this many prepared
    /// plans are retained; inserts beyond it evict the least-recently-
    /// used entry, preferring entries that hold **materialized answer
    /// sets** (the triangle route and `Batch` plans — the heaviest
    /// residents). `0` disables caching. The capacity lives in the
    /// shared state, so it applies to every clone of this engine.
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .set_capacity(capacity);
        self
    }

    /// The current plan-cache capacity.
    pub fn cache_capacity(&self) -> usize {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .capacity
    }

    /// Build an engine by registering `rels[i]` under the relation
    /// name of `q`'s atom `i` — the ergonomic path from the workload
    /// generators, whose instances carry positional relation lists.
    /// Self-joins (several atoms sharing a name) must bind the same
    /// relation at every occurrence.
    ///
    /// # Panics
    ///
    /// On the conditions [`try_from_query_bindings`](Self::try_from_query_bindings)
    /// reports as typed errors — convenience for tests and examples
    /// with known-good bindings; servers handling untrusted input
    /// should use the fallible form.
    pub fn from_query_bindings(q: &ConjunctiveQuery, rels: Vec<Relation>) -> Self {
        // LINT-ALLOW(no-panic-hot-path): documented panicking convenience; servers use try_from_query_bindings.
        Engine::try_from_query_bindings(q, rels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`from_query_bindings`](Self::from_query_bindings):
    /// rejects a relation list whose length differs from the atom
    /// count, and atoms sharing a name but bound to different
    /// relations — either would silently run the query on the wrong
    /// data. The conflict check compares shared handles first
    /// (pointer equality), so rebinding the same `Arc`-backed relation
    /// is free.
    pub fn try_from_query_bindings(
        q: &ConjunctiveQuery,
        rels: Vec<Relation>,
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
        Ok(Engine::new(catalog))
    }

    /// A snapshot of the catalog (to resolve symbols, inspect
    /// relations). Cheap: an `Arc` clone, no relation data is copied.
    /// The snapshot is immutable; concurrent [`Engine::update_catalog`]
    /// calls produce *new* catalog versions without disturbing it.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.read_state().0
    }

    /// The current catalog epoch: bumped by every
    /// [`Engine::update_catalog`]. Prepared plans record the epoch they
    /// were built at; the internal cache serves an entry only while its
    /// epoch is current, so a stale plan can never be served.
    pub fn catalog_epoch(&self) -> u64 {
        self.read_state().1
    }

    /// Mutate the catalog (register, replace, or remove relations) and
    /// bump the epoch, invalidating every cached plan. This replaces
    /// the old `catalog_mut` accessor: mutation through a closure is
    /// the only write path, so the cache-epoch bump can never be
    /// forgotten. Copy-on-write: relation payloads shared with live
    /// snapshots or prepared queries are not copied — only the catalog
    /// map is.
    ///
    /// The closure runs while the catalog **write lock** is held, which
    /// serializes updates (no lost-update races between concurrent
    /// writers). Consequently the closure must not call back into this
    /// engine (`catalog()`, `plan()`, `register`, a nested
    /// `update_catalog`, …) — the lock is not reentrant and such a call
    /// would deadlock. Read what you need *before* updating; the
    /// closure receives the up-to-date catalog as its argument.
    pub fn update_catalog<F: FnOnce(&mut Catalog)>(&self, f: F) {
        {
            let mut st = self
                .shared
                .catalog
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            // Bump the epoch *before* running the closure: if `f`
            // panics mid-mutation, the poisoned state is recovered (see
            // the `unwrap_or_else` above), and the already-bumped epoch
            // guarantees no cached plan built against the old catalog
            // can ever be served against the half-updated one.
            st.epoch += 1;
            f(Arc::make_mut(&mut st.catalog));
        }
        // Outside the write lock: eagerly drop stale entries. Purely an
        // eviction — correctness comes from the epoch check on every
        // cache hit, so an entry inserted by a racing prepare between
        // the bump and this clear is merely unused memory, never served.
        self.shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Register (or replace) one relation — convenience wrapper over
    /// [`Engine::update_catalog`].
    pub fn register<S: Into<String>>(&self, name: S, rel: Relation) {
        let name = name.into();
        self.update_catalog(|c| c.register(name, rel));
    }

    /// Append one immutable batch to the named relation. The append
    /// itself is `O(batch)`: the batch payload is adopted as a delta —
    /// the base payload, its shared trie indexes, and every cached plan
    /// over *other* relations stay untouched. Unlike
    /// [`Engine::update_catalog`] this does **not** bump the epoch: only
    /// cached plans that read `name` are invalidated (relation-scoped),
    /// so a streaming writer never recreates the cold-start cliff for
    /// the rest of the workload. Each invalidated plan is then
    /// refreshed on this call, from the entry it just lost, so
    /// concurrent readers keep hitting the cache and the rebuild cost
    /// rides on the writer. What a refresh costs depends on the term
    /// ([`WriteStats`] counts each kind): a term that reads none of
    /// the new rows is **kept** as it is (the all-base term, always);
    /// a materialized term — the triangle route, `Batch` plans,
    /// lexicographic ranking on cyclic routes — is **extended** by the
    /// join over the batch alone plus one copy of its answers; a T-DP
    /// term is **rebuilt**, one pass over every relation of the term,
    /// so a path's refresh grows with the relations the appended one
    /// joins, not with the batch. Open streams keep their `Arc`
    /// snapshots — a mid-stream append is invisible to them (snapshot
    /// isolation).
    ///
    /// Once the relation's delta tail outgrows its base (past a floor,
    /// [`anyk_storage::MIN_COMPACT_ROWS`]), the deltas are folded into
    /// a fresh base payload automatically.
    ///
    /// Returns this append's own [`Appended`] outcome. Typed failures:
    /// unknown relation, batch arity mismatch, and the reserved `#`
    /// fragment namespace.
    pub fn append(&self, name: &str, batch: Relation) -> Result<Appended, EngineError> {
        if name.contains('#') {
            return Err(EngineError::ReservedRelationName {
                relation: name.to_string(),
            });
        }
        self.append_raw(name, batch)
    }

    /// [`Engine::append`] without the reserved-name guard — the
    /// internal path a [`ShardedEngine`] uses to maintain `{name}#frag`
    /// fragments. Fragment appends skip the write counters (they are
    /// shard bookkeeping, not logical writes).
    pub(crate) fn append_raw(&self, name: &str, batch: Relation) -> Result<Appended, EngineError> {
        use std::sync::atomic::Ordering::Relaxed;
        let rows = batch.len() as u64;
        let appended = {
            let mut st = self
                .shared
                .catalog
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            // Copy-on-write on the catalog *map* only: snapshots taken
            // by concurrent readers keep every relation handle they
            // already resolved.
            let cat = Arc::make_mut(&mut st.catalog);
            cat.append(name, batch)?;
            let due = cat
                .entry(name)
                .is_some_and(anyk_storage::DeltaRelation::should_compact);
            if due {
                cat.compact(name)?;
            }
            Appended {
                deltas: cat.entry(name).map_or(0, |e| e.deltas().len()),
                compacted: due,
            }
        };
        let compacted = appended.compacted;
        // Outside the write lock: eagerly drop dependent plans. Purely
        // an eviction — correctness comes from the per-hit dependency
        // check, so an entry inserted by a racing prepare between the
        // append and this purge is merely unused memory, never served.
        let removed = self
            .shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .invalidate_relation(name);
        let counted = !name.contains('#');
        if counted {
            let w = &self.shared.writes;
            w.appends.fetch_add(1, Relaxed);
            w.appended_rows.fetch_add(rows, Relaxed);
            if compacted {
                w.compactions.fetch_add(1, Relaxed);
            }
            w.invalidated_plans.fetch_add(removed.len() as u64, Relaxed);
        }
        self.refresh_plans(removed, counted, compacted);
        Ok(appended)
    }

    /// Re-prepare plans the write path just invalidated, so the next
    /// reader of each is a cache hit instead of paying the rebuild. The
    /// cost lands on the writer, and each prepare is handed the entry
    /// it replaces: terms the write left valid are taken over from it
    /// (see [`Engine::append`]). `counted` says whether the terms go
    /// into [`WriteStats`] (fragment bookkeeping does not), `compacted`
    /// whether the write folded the relation's deltas into a new base.
    /// A failing re-prepare is dropped silently: the next reader
    /// re-derives the same typed error.
    fn refresh_plans(&self, removed: Vec<(CacheKey, CacheSlot)>, counted: bool, compacted: bool) {
        for (key, slot) in removed {
            // A compaction swapped the base under every term; otherwise
            // the terms outlive the entry that held them together.
            let stale = if compacted {
                Vec::new()
            } else {
                slot.prepared.parts().iter().cloned().map(Some).collect()
            };
            drop(slot.prepared);
            let refresh = Refresh {
                stale,
                deps: &slot.deps,
                counted,
            };
            let _ = self.prepare_cached(key.cq, key.rank, slot.opts, Some(refresh));
        }
    }

    /// Fold the named relation's pending deltas into a fresh base
    /// payload now, regardless of the automatic threshold. Returns
    /// whether a compaction actually ran (`false` when delta-free).
    /// Cached plans reading `name` are invalidated (their dependency
    /// fingerprint names the replaced payloads); everything else stays
    /// warm. Open streams keep serving their old snapshots.
    pub fn compact(&self, name: &str) -> Result<bool, EngineError> {
        use std::sync::atomic::Ordering::Relaxed;
        let compacted = {
            let mut st = self
                .shared
                .catalog
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            Arc::make_mut(&mut st.catalog).compact(name)?
        };
        if compacted {
            let removed = self
                .shared
                .cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .invalidate_relation(name);
            let counted = !name.contains('#');
            if counted {
                let w = &self.shared.writes;
                w.compactions.fetch_add(1, Relaxed);
                w.invalidated_plans.fetch_add(removed.len() as u64, Relaxed);
            }
            self.refresh_plans(removed, counted, true);
        }
        Ok(compacted)
    }

    /// A snapshot of the write-path counters: appends, appended rows,
    /// compactions, relation-scoped plan invalidations, and the terms
    /// their refreshes kept, extended and rebuilt. Cumulative over the
    /// engine's lifetime and shared by all clones.
    pub fn write_stats(&self) -> WriteStats {
        use std::sync::atomic::Ordering::Relaxed;
        let w = &self.shared.writes;
        WriteStats {
            appends: w.appends.load(Relaxed),
            appended_rows: w.appended_rows.load(Relaxed),
            compactions: w.compactions.load(Relaxed),
            invalidated_plans: w.invalidated_plans.load(Relaxed),
            terms_kept: w.terms_kept.load(Relaxed),
            terms_extended: w.terms_extended.load(Relaxed),
            terms_rebuilt: w.terms_rebuilt.load(Relaxed),
        }
    }

    /// Number of prepared plans currently cached (diagnostics).
    pub fn cached_plans(&self) -> usize {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// A snapshot of the plan-cache counters: hits, misses, capacity
    /// evictions, resident entries, and the configured capacity.
    /// Counters are cumulative over the engine's lifetime (shared by
    /// all clones) and are **not** reset by catalog updates — an epoch
    /// purge empties the cache but keeps the history.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self
            .shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            entries: cache.map.len(),
            capacity: cache.capacity,
        }
    }

    /// A snapshot of the shared index-catalog counters: trie lookups
    /// served resident (`hits`) vs built on demand (`misses`/`builds`),
    /// capacity `evictions`, and the resident byte footprint. The index
    /// catalog is owned by the [`Catalog`] and **survives epoch bumps**:
    /// [`Engine::update_catalog`] invalidates only the tries of
    /// relations actually replaced or removed, so a steady serving
    /// workload keeps its indexes warm across unrelated catalog updates.
    pub fn index_stats(&self) -> IndexStats {
        self.read_state().0.indexes().stats()
    }

    /// Start planning `cq`. Returns a request builder; nothing
    /// executes until [`QueryRequest::plan`] /
    /// [`QueryRequest::prepare`].
    pub fn query(&self, cq: ConjunctiveQuery) -> QueryRequest<'_> {
        QueryRequest {
            engine: self,
            cq,
            rank: RankSpec::default(),
            opts: self.opts,
        }
    }

    /// Route and preprocess `cq` under `rank` exactly once, returning a
    /// shareable [`PreparedQuery`]. This is the prepare-once/
    /// execute-many serving path: `prepare` pays the full `O~(n^w)`
    /// preprocessing; every [`PreparedQuery::stream`] afterwards costs
    /// only the per-answer delay side. Results also land in the
    /// engine's plan cache, so subsequent ad-hoc
    /// [`plan`](QueryRequest::plan) calls for the same query hit it.
    pub fn prepare(
        &self,
        cq: ConjunctiveQuery,
        rank: RankSpec,
    ) -> Result<PreparedQuery, EngineError> {
        self.query(cq).rank_by(rank).prepare()
    }

    fn read_state(&self) -> (Arc<Catalog>, u64) {
        let st = self
            .shared
            .catalog
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        (Arc::clone(&st.catalog), st.epoch)
    }

    /// [`prepare_cached`](Self::prepare_cached) plus provenance: did
    /// the plan cache serve it, and how long did prepare take on the
    /// engine's clock? The wall time also lands in the registry's
    /// prepare histogram (zero-cost when recording is disabled).
    pub(crate) fn prepare_cached_report(
        &self,
        cq: ConjunctiveQuery,
        rank: RankSpec,
        opts: EngineOpts,
    ) -> Result<(PreparedQuery, PrepareReport), EngineError> {
        let obs = &self.shared.obs;
        let enabled = obs.enabled();
        let t0 = if enabled { obs.now_us() } else { 0 };
        let (prepared, cache_hit) = self.prepare_cached(cq, rank, opts, None)?;
        let prepare_us = if enabled {
            let us = obs.now_us().saturating_sub(t0);
            obs.record_prepare(us);
            us
        } else {
            0
        };
        Ok((
            prepared,
            PrepareReport {
                cache_hit,
                prepare_us,
            },
        ))
    }

    /// Get-or-build the prepared query for `(cq, rank, opts)` through
    /// the cache (`true` = served from it). Concurrent misses may
    /// prepare twice (last insert wins) — wasted work, never wrong
    /// results. `refresh` is the write path's: the entry this prepare
    /// replaces, whose still-valid terms a miss takes over instead of
    /// building them; a reader's miss passes none and builds every
    /// term. The query is taken by value: it becomes the cache key, so
    /// a hit copies nothing of it.
    fn prepare_cached(
        &self,
        cq: ConjunctiveQuery,
        rank: RankSpec,
        opts: EngineOpts,
        mut refresh: Option<Refresh<'_>>,
    ) -> Result<(PreparedQuery, bool), EngineError> {
        let mut key = CacheKey::new(cq, rank, opts);
        let (catalog, epoch) = self.read_state();
        {
            let mut cache = self
                .shared
                .cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // A hit must pass both freshness gates: the epoch (schema
            // changes via `update_catalog`) and the per-relation
            // dependency fingerprint (appends/compactions, which do not
            // bump the epoch).
            if let Some(slot) = cache.get(&key) {
                if slot.prepared.epoch() == epoch && deps_current(&catalog, &slot.deps) {
                    let served = slot.prepared.adopt_variant(opts.variant);
                    cache.hits += 1;
                    return Ok((served, true));
                }
            }
            // Single-artifact plans (`variant == None`: the triangle
            // route, and cyclic routes under a non-commutative
            // ranking) build the same materialized artifact whether or
            // not Batch was requested, and are stored under
            // `batch: false` — accept that entry for a Batch request
            // rather than materializing a duplicate. Peek first: the
            // probe must not refresh the entry's LRU position unless
            // it is actually served.
            if key.batch {
                key.batch = false;
                if let Some(slot) = cache.peek(&key) {
                    if slot.prepared.epoch() == epoch
                        && slot.prepared.plan().variant.is_none()
                        && deps_current(&catalog, &slot.deps)
                    {
                        let served = slot.prepared.adopt_variant(opts.variant);
                        cache.touch(&key);
                        cache.hits += 1;
                        return Ok((served, true));
                    }
                }
                key.batch = true;
            }
            cache.misses += 1;
        }
        let cq = &key.cq;
        let live = resolve_live(&catalog, cq)?;
        let fulls: Vec<Relation> = live.iter().map(|a| a.full.clone()).collect();
        let delta_atoms = live.iter().filter(|a| a.has_deltas()).count();
        let mut plan = make_plan(cq, rank, opts, &fulls, catalog.indexes())?;
        plan.deltas = delta_atoms;
        // Normalize: one cache entry serves Batch and any-k alike.
        let batch = key.batch && plan.variant.is_some();
        // One plan for the prepared query, its terms and their streams.
        let plan = Arc::new(plan);
        // The answers over (base ⊎ deltas) per atom, telescoped so the
        // terms partition the full cross product:
        //   the all-base term: (B_1, …, B_m)
        //   atom i's term:     (F_1, …, F_{i-1}, D_i, B_{i+1}, …, B_m)
        // where F = base ⊎ deltas and D_i = atom i's delta rows
        // ([`TermRead`]). Disjoint and complete by telescoping, and
        // positional — a self-join's occurrences telescope
        // independently. A delta-free query is its all-base term alone.
        // Index requests go through [`DurableOnly`]: base payloads (and
        // delta-free fulls, which alias their base) are append-stable,
        // so their tries come from the shared catalog — all of the
        // all-base term's do — and a term pays private builds only for
        // the delta and flattened payloads, which change on every
        // append.
        let indexes = DurableOnly {
            shared: &**catalog.indexes(),
            live: &live,
        };
        let mut build_term = |term: Option<usize>| {
            let plan = Arc::clone(&plan);
            // The term's relations, position `news.0` reading only the
            // batches `news.1` when given.
            let rels = |news: Option<(usize, &[Relation])>| -> Vec<Relation> {
                (live.iter().enumerate())
                    .map(|(pos, atom)| match news {
                        Some((at, batches)) if at == pos => Relation::concat(batches),
                        _ => atom.read(TermRead::of(term, pos)),
                    })
                    .collect()
            };
            // The one shortcut: a term of the entry this prepare
            // replaces is taken over when it was built over the same
            // payloads, and — joins being multilinear — extended by the
            // join over the new batches when one position grew by them
            // and its answers are materialized.
            let writes = &self.shared.writes;
            let stale = refresh.as_mut();
            let taken = match stale.and_then(|r| r.take_term(cq, &live, epoch, term)) {
                Some((old, None)) => Some((old, &writes.terms_kept)),
                Some((old, Some((pos, from)))) if old.holds_materialized_answers() => {
                    let sources = TermRead::of(term, pos).slice(&live[pos].sources);
                    let rels = rels(Some((pos, &sources[from..])));
                    let more =
                        PreparedQuery::build(Arc::clone(&plan), rels, batch, epoch, &indexes)?;
                    let extended = old.extend(&more).transpose()?;
                    extended.map(|term| (term, &writes.terms_extended))
                }
                _ => None,
            };
            let (built, counter) = match taken {
                Some(taken) => taken,
                None => {
                    let built = PreparedQuery::build(plan, rels(None), batch, epoch, &indexes)?;
                    (built, &writes.terms_rebuilt)
                }
            };
            if refresh.as_ref().is_some_and(|r| r.counted) {
                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            Ok::<_, EngineError>(built)
        };
        let prepared = if delta_atoms == 0 {
            build_term(None)?
        } else {
            let delta_terms = (0..live.len()).filter(|&i| live[i].has_deltas());
            let terms = std::iter::once(None)
                .chain(delta_terms.map(Some))
                .map(&mut build_term)
                .collect::<Result<Vec<_>, _>>()?;
            PreparedQuery::union(plan, terms, epoch)
        };
        let deps = query_deps(&catalog, cq);
        key.batch = batch;
        self.shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, prepared.clone(), deps, opts);
        Ok((prepared, false))
    }
}

/// Provenance of one prepare: cache outcome and wall time (on the
/// engine's injected clock; 0 when recording is disabled). Index
/// provenance is on the resulting plan ([`Plan::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrepareReport {
    /// Served from the plan cache (epoch-valid entry).
    pub cache_hit: bool,
    /// Wall time of the prepare, µs.
    pub prepare_us: u64,
}

/// The [`IndexProvider`] of a prepare's terms: requests over the
/// append-stable payloads (the bases of `live` — immutable until a
/// compaction swaps the payload out; a delta-free full aliases its
/// base) are delegated to the shared catalog, everything else (delta
/// batches, flattened base ⊎ delta payloads) gets a private ephemeral
/// build. This keeps the index cost of a delta term proportional to
/// the *delta*, while the short-lived payloads never pollute the
/// shared catalog.
struct DurableOnly<'a> {
    shared: &'a dyn IndexProvider,
    live: &'a [ResolvedAtom],
}

impl DurableOnly<'_> {
    fn durable(&self, rel: &Relation) -> bool {
        (self.live.iter()).any(|a| a.sources[0].payload_id() == rel.payload_id())
    }
}

impl IndexProvider for DurableOnly<'_> {
    fn trie(&self, rel: &Relation, positions: &[usize]) -> Arc<anyk_storage::Trie> {
        if self.durable(rel) {
            self.shared.trie(rel, positions)
        } else {
            anyk_storage::BuildEachTime.trie(rel, positions)
        }
    }

    fn probe(&self, rel: &Relation, positions: &[usize]) -> bool {
        self.durable(rel) && self.shared.probe(rel, positions)
    }
}

/// One atom's relation resolved against the live catalog entry: its
/// sources `[base, δ₁…δ_j]` and the flattened full content (base ⊎
/// deltas — the base payload itself when delta-free). All `Arc`-backed
/// handles.
struct ResolvedAtom {
    sources: Vec<Relation>,
    full: Relation,
}

impl ResolvedAtom {
    fn has_deltas(&self) -> bool {
        self.sources.len() > 1
    }

    /// The relation a term reads here: a handle for `B` and `F`, the
    /// concatenated batches for `D` (itself a handle while there is
    /// one batch).
    fn read(&self, read: TermRead) -> Relation {
        match read {
            TermRead::Full => self.full.clone(),
            _ => Relation::concat(read.slice(&self.sources)),
        }
    }
}

/// Resolve each atom against the live (delta-aware) catalog entries:
/// per atom, its sources and the flattened full content, with typed
/// arity/existence errors. On a delta-free catalog every `full`
/// shares its base payload — each entry is a refcount bump, never a
/// tuple copy.
fn resolve_live(
    catalog: &Catalog,
    cq: &ConjunctiveQuery,
) -> Result<Vec<ResolvedAtom>, EngineError> {
    if cq.num_atoms() == 0 {
        return Err(EngineError::EmptyQuery);
    }
    let mut atoms = Vec::with_capacity(cq.num_atoms());
    for (i, atom) in cq.atoms().iter().enumerate() {
        let entry = catalog.entry(&atom.relation).ok_or_else(|| {
            EngineError::Storage(anyk_storage::StorageError::RelationNotFound {
                name: atom.relation.clone(),
            })
        })?;
        let base = entry.base();
        if base.arity() != atom.vars.len() {
            return Err(EngineError::ArityMismatch {
                atom: i,
                relation: atom.relation.clone(),
                expected: atom.vars.len(),
                found: base.arity(),
            });
        }
        atoms.push(ResolvedAtom {
            sources: entry.sources().cloned().collect(),
            full: entry.flatten(),
        });
    }
    Ok(atoms)
}

/// Route the query. Relations are needed for a cycle's heavy
/// threshold (`n^(1/⌈ℓ/2⌉)`) and for probing `indexes` (are the shared
/// tries this route will request already catalog-resident?).
fn make_plan(
    cq: &ConjunctiveQuery,
    rank: RankSpec,
    opts: EngineOpts,
    rels: &[Relation],
    indexes: &IndexCatalog,
) -> Result<Plan, EngineError> {
    let route = match gyo_reduce(cq) {
        GyoResult::Acyclic(tree) => Route::Acyclic { tree },
        GyoResult::Cyclic(_) => match cycle_length(cq) {
            Some(3) => Route::Triangle,
            Some(len) => {
                let n = rels.iter().map(Relation::len).max().unwrap_or(0);
                Route::Cycle {
                    len,
                    threshold: cycle_heavy_threshold(n, len),
                }
            }
            None => Route::Decomposed {
                decomp: auto_decomposition(cq),
            },
        },
    };
    let width = match &route {
        Route::Acyclic { .. } => 1.0,
        Route::Triangle => cycle_submodular_width(3),
        Route::Cycle { len, .. } => cycle_submodular_width(*len),
        Route::Decomposed { decomp } => decomp.width,
    };
    // Record the *effective* variant so `explain` never reports a
    // variant that does not run: the triangle plan has a single
    // implementation (worst-case-optimal materialization + deferred
    // sort) that no variant choice affects, and so does any cyclic
    // route under a non-commutative ranking — the per-case/bag any-k
    // plans serialize atoms in per-case orders, so e.g. lexicographic
    // ranking runs off the materialized answers with weights
    // serialized in canonical atom order instead. Batch is honored on
    // every other route — cyclic routes materialize
    // worst-case-optimally.
    let variant = match &route {
        Route::Triangle => None,
        Route::Cycle { .. } | Route::Decomposed { .. } if !rank.is_commutative() => None,
        _ => Some(opts.variant),
    };
    let index = index_use(cq, &route, rank, opts, rels, indexes);
    Ok(Plan {
        query: cq.clone(),
        route,
        rank,
        variant,
        width,
        index,
        // The caller (prepare/explain) overwrites this from the live
        // catalog entries; `make_plan` itself only sees flattened data.
        deltas: 0,
    })
}

/// Probe the index catalog for the shared tries `route`'s prepare will
/// request, without building anything: [`IndexUse::Cached`] iff every
/// unconditional request is already resident. The request listings
/// mirror what the route's prepare actually does — the canonical
/// triangle join, a cycle's case split (or its worst-case-optimal
/// materialization under Batch / a non-commutative ranking, which
/// cannot drive the case plans), and the GHD per-bag cover joins.
/// Acyclic plans never consult the catalog (T-DP builds its own
/// per-node structures): [`IndexUse::NotApplicable`].
fn index_use(
    cq: &ConjunctiveQuery,
    route: &Route,
    rank: RankSpec,
    opts: EngineOpts,
    rels: &[Relation],
    indexes: &IndexCatalog,
) -> IndexUse {
    use anyk_storage::IndexProvider as _;
    let wco = matches!(opts.variant, AnyKVariant::Batch) || !rank.is_commutative();
    let requests: Vec<(usize, Vec<usize>)> = match route {
        Route::Acyclic { .. } => return IndexUse::NotApplicable,
        Route::Triangle => generic_join_trie_requests(&triangle_query(), None),
        Route::Cycle { .. } if wco => generic_join_trie_requests(cq, None),
        Route::Cycle { len, .. } => cycle_trie_requests(*len),
        Route::Decomposed { .. } if wco => generic_join_trie_requests(cq, None),
        Route::Decomposed { decomp } => ghd_trie_requests(cq, decomp),
    };
    if requests
        .iter()
        .all(|(a, positions)| indexes.probe(&rels[*a], positions))
    {
        IndexUse::Cached
    } else {
        IndexUse::Built
    }
}

/// A query being configured: `engine.query(cq).rank_by(...).plan()?`.
pub struct QueryRequest<'e> {
    engine: &'e Engine,
    cq: ConjunctiveQuery,
    rank: RankSpec,
    opts: EngineOpts,
}

impl QueryRequest<'_> {
    /// Choose the ranking function (default: [`RankSpec::Sum`]).
    pub fn rank_by(mut self, rank: RankSpec) -> Self {
        self.rank = rank;
        self
    }

    /// Override execution options for this query only.
    pub fn with_opts(mut self, opts: EngineOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Override just the any-k variant for this query.
    pub fn with_variant(mut self, variant: AnyKVariant) -> Self {
        self.opts.variant = variant;
        self
    }

    /// Plan without executing: resolve relations, route, and return
    /// the [`Plan`] for inspection (`plan.explain()`). No relation
    /// data is copied.
    pub fn explain(&self) -> Result<Plan, EngineError> {
        let catalog = self.engine.catalog();
        let live = resolve_live(&catalog, &self.cq)?;
        let fulls: Vec<Relation> = live.iter().map(|a| a.full.clone()).collect();
        let mut plan = make_plan(&self.cq, self.rank, self.opts, &fulls, catalog.indexes())?;
        plan.deltas = live.iter().filter(|a| a.has_deltas()).count();
        Ok(plan)
    }

    /// Route and preprocess once, returning the shareable
    /// [`PreparedQuery`] (see [`Engine::prepare`]).
    pub fn prepare(self) -> Result<PreparedQuery, EngineError> {
        Ok(self
            .engine
            .prepare_cached(self.cq, self.rank, self.opts, None)?
            .0)
    }

    /// [`prepare`](Self::prepare) plus provenance — cache outcome and
    /// prepare wall time ([`PrepareReport`]).
    pub fn prepare_report(self) -> Result<(PreparedQuery, PrepareReport), EngineError> {
        self.engine
            .prepare_cached_report(self.cq, self.rank, self.opts)
    }

    /// Plan **and** prepare: returns a ranked stream. Backed by the
    /// engine's plan cache — the first call for a (query, ranking)
    /// pays preprocessing (full reducer, T-DP, case materialization);
    /// repeated calls reuse the shared prepared state and pay only the
    /// per-answer delay side. Enumeration is lazy either way.
    pub fn plan(self) -> Result<RankedStream, EngineError> {
        Ok(self.plan_report()?.0)
    }

    /// [`plan`](Self::plan) plus prepare provenance. The returned
    /// stream carries the engine's per-pull delay sampler (every Nth
    /// pull, to bound overhead) when recording is enabled.
    pub fn plan_report(self) -> Result<(RankedStream, PrepareReport), EngineError> {
        let (prepared, report) = self
            .engine
            .prepare_cached_report(self.cq, self.rank, self.opts)?;
        Ok((prepared.stream().sampled(self.engine.obs()), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_core::succorder::SuccessorKind;
    use anyk_query::cq::{
        chorded_cycle_query, cycle_query, path_query, triangle_query, QueryBuilder,
    };
    use anyk_storage::{RelationBuilder, Schema, StorageError};

    fn edge_rel(rows: &[(i64, i64, f64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for &(x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    fn path_engine() -> (Engine, ConjunctiveQuery) {
        let q = path_query(2);
        let r1 = edge_rel(&[(1, 10, 0.3), (2, 10, 0.1), (3, 30, 0.2)]);
        let r2 = edge_rel(&[(10, 100, 0.5), (10, 200, 0.05)]);
        (Engine::from_query_bindings(&q, vec![r1, r2]), q)
    }

    #[test]
    fn acyclic_routes_and_orders() {
        let (engine, q) = path_engine();
        let plan = engine.query(q.clone()).explain().unwrap();
        assert_eq!(plan.route.label(), "acyclic");
        assert!((plan.width - 1.0).abs() < 1e-12);

        let mut stream = engine.query(q).rank_by(RankSpec::Sum).plan().unwrap();
        let all = stream.next_batch(100);
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|w| w[0].cost <= w[1].cost));
        // Cheapest: (2,10,200) = 0.1 + 0.05.
        assert_eq!(all[0].ints(), vec![2, 10, 200]);
    }

    #[test]
    fn unknown_relation_is_typed() {
        let (engine, _) = path_engine();
        let q = QueryBuilder::new().atom("Nope", &["a", "b"]).build();
        let err = engine.query(q).plan().unwrap_err();
        assert_eq!(
            err,
            EngineError::Storage(StorageError::RelationNotFound {
                name: "Nope".into()
            })
        );
    }

    #[test]
    fn arity_mismatch_is_typed() {
        let (engine, _) = path_engine();
        let q = QueryBuilder::new().atom("R1", &["a", "b", "c"]).build();
        let err = engine.query(q).plan().unwrap_err();
        assert!(matches!(
            err,
            EngineError::ArityMismatch {
                atom: 0,
                expected: 3,
                found: 2,
                ..
            }
        ));
    }

    #[test]
    fn triangle_routes_to_wco() {
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (3, 1, 0.25)]);
        let q = triangle_query();
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e]);
        let mut stream = engine.query(q).rank_by(RankSpec::Sum).plan().unwrap();
        assert_eq!(stream.plan().route.label(), "triangle");
        let top = stream.top_k(10);
        assert_eq!(top.len(), 3, "3 rotations of the single triangle");
        for a in &top {
            assert_eq!(a.cost.scalar(), Some(1.75));
        }
    }

    #[test]
    fn four_cycle_routes_to_union_of_trees() {
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (3, 4, 0.25), (4, 1, 2.0)]);
        let q = cycle_query(4);
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e.clone(), e]);
        let plan = engine.query(q.clone()).explain().unwrap();
        assert_eq!(plan.route.label(), "cycle");
        assert!(matches!(
            plan.route,
            Route::Cycle {
                len: 4,
                threshold: 2
            }
        ));
        assert!((plan.width - 1.5).abs() < 1e-12);
        let answers: Vec<_> = engine.query(q).plan().unwrap().collect();
        assert_eq!(answers.len(), 4, "4 rotations of the single cycle");
        assert!(answers.windows(2).all(|w| w[0].cost <= w[1].cost));
    }

    fn six_ring() -> Relation {
        edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 4, 0.25),
            (4, 5, 0.125),
            (5, 6, 2.0),
            (6, 1, 0.0625),
        ])
    }

    #[test]
    fn six_cycle_routes_to_the_cycle_route() {
        let q = cycle_query(6);
        let engine = Engine::from_query_bindings(&q, vec![six_ring(); 6]);
        let plan = engine.query(q.clone()).explain().unwrap();
        assert_eq!(plan.route.label(), "cycle");
        // Δ = the smallest t with t³ ≥ 6.
        assert!(matches!(
            plan.route,
            Route::Cycle {
                len: 6,
                threshold: 2
            }
        ));
        assert!((plan.width - 5.0 / 3.0).abs() < 1e-12);
        assert!(plan.explain().contains("cycle(6) threshold=2 width=1.667"));
        let answers: Vec<_> = engine.query(q).plan().unwrap().collect();
        assert_eq!(answers.len(), 6);
    }

    #[test]
    fn chorded_six_cycle_routes_to_decomposition() {
        // The chord R7(x1,x3) closes over the ring's 2-step pairs.
        let chord = edge_rel(&[(1, 3, 0.5), (3, 5, 0.25), (5, 1, 1.0)]);
        let q = chorded_cycle_query(6);
        let mut rels = vec![six_ring(); 6];
        rels.push(chord);
        let engine = Engine::from_query_bindings(&q, rels);
        let plan = engine.query(q.clone()).explain().unwrap();
        assert_eq!(plan.route.label(), "decomposed");
        assert!(plan.width > 1.0);
        let answers: Vec<_> = engine.query(q).plan().unwrap().collect();
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn lex_on_cyclic_runs_off_materialized_answers() {
        // Two triangles with distinct edge weights: lex order is
        // decided by the first atom's weight (canonical atom order).
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (4, 5, 0.125),
            (5, 6, 8.0),
            (6, 4, 2.0),
        ]);
        let q = triangle_query();
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e]);
        let plan = engine
            .query(q.clone())
            .rank_by(RankSpec::Lex)
            .explain()
            .unwrap();
        assert_eq!(
            plan.variant, None,
            "lex on a cyclic route has a single (materialized) implementation"
        );
        let all: Vec<_> = engine
            .query(q)
            .rank_by(RankSpec::Lex)
            .plan()
            .unwrap()
            .collect();
        assert_eq!(all.len(), 6, "3 rotations of each triangle");
        assert!(all.windows(2).all(|w| w[0].cost <= w[1].cost));
        // The best answer starts with the lightest first-atom weight.
        assert_eq!(
            all[0].cost.lex().map(|v| v[0].get()),
            Some(0.125),
            "canonical atom order: the first atom's weight leads"
        );
    }

    #[test]
    fn lex_on_cyclic_shares_one_cache_entry_with_batch() {
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (3, 4, 0.25), (4, 1, 2.0)]);
        let q = cycle_query(4);
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e.clone(), e]);
        let anyk: Vec<_> = engine
            .query(q.clone())
            .rank_by(RankSpec::Lex)
            .plan()
            .unwrap()
            .collect();
        assert_eq!(engine.cached_plans(), 1);
        let batch: Vec<_> = engine
            .query(q)
            .rank_by(RankSpec::Lex)
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap()
            .collect();
        assert_eq!(engine.cached_plans(), 1, "no duplicate lex-cyclic artifact");
        assert_eq!(anyk, batch);
    }

    #[test]
    fn lex_on_acyclic_works() {
        let (engine, q) = path_engine();
        let mut stream = engine.query(q).rank_by(RankSpec::Lex).plan().unwrap();
        let all = stream.next_batch(10);
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|w| w[0].cost <= w[1].cost));
        assert_eq!(
            all[0].cost.lex().map(<[anyk_storage::Weight]>::len),
            Some(2)
        );
    }

    #[test]
    fn variants_agree_on_acyclic() {
        let (engine, q) = path_engine();
        let base: Vec<Vec<i64>> = engine
            .query(q.clone())
            .plan()
            .unwrap()
            .map(|a| a.ints())
            .collect();
        for variant in [
            AnyKVariant::Part(SuccessorKind::Eager),
            AnyKVariant::Rec,
            AnyKVariant::Batch,
        ] {
            let got: Vec<Vec<i64>> = engine
                .query(q.clone())
                .with_variant(variant)
                .plan()
                .unwrap()
                .map(|a| a.ints())
                .collect();
            assert_eq!(got, base, "{variant:?}");
        }
    }

    #[test]
    fn runtime_rank_switch_changes_order() {
        let q = path_query(2);
        let r1 = edge_rel(&[(1, 10, 0.9), (2, 10, 0.1)]);
        let r2 = edge_rel(&[(10, 100, 0.5)]);
        let engine = Engine::from_query_bindings(&q, vec![r1, r2]);
        // Sum: (2,10,100) = 0.6 beats (1,10,100) = 1.4.
        let sum_first = engine
            .query(q.clone())
            .rank_by(RankSpec::Sum)
            .plan()
            .unwrap()
            .next()
            .unwrap();
        assert_eq!(sum_first.ints(), vec![2, 10, 100]);
        // Min (ascending by best edge): (2,10,100) has min 0.1.
        let min_first = engine
            .query(q.clone())
            .rank_by(RankSpec::Min)
            .plan()
            .unwrap()
            .next()
            .unwrap();
        assert_eq!(min_first.ints(), vec![2, 10, 100]);
        assert_eq!(min_first.cost.scalar(), Some(0.1));
        // Max (bottleneck): 0.5 vs 0.9.
        let max_first = engine
            .query(q)
            .rank_by(RankSpec::Max)
            .plan()
            .unwrap()
            .next()
            .unwrap();
        assert_eq!(max_first.ints(), vec![2, 10, 100]);
        assert_eq!(max_first.cost.scalar(), Some(0.5));
    }

    #[test]
    fn plan_reports_effective_variant() {
        // Triangle: no variant applies, even when one was requested.
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (3, 1, 0.25)]);
        let q = triangle_query();
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e.clone()]);
        let plan = engine
            .query(q)
            .with_variant(AnyKVariant::Rec)
            .explain()
            .unwrap();
        assert_eq!(plan.variant, None);
        assert!(plan.explain().contains("variant = n/a"), "{plan}");

        // Cyclic + Batch: the materialize-then-sort baseline is wired
        // on cyclic routes, so the requested variant is honored.
        let q4 = cycle_query(4);
        let engine =
            Engine::from_query_bindings(&q4, vec![e.clone(), e.clone(), e.clone(), e.clone()]);
        let plan = engine
            .query(q4.clone())
            .with_variant(AnyKVariant::Batch)
            .explain()
            .unwrap();
        assert_eq!(plan.variant, Some(AnyKVariant::Batch));

        // Cyclic + Rec is honored and reported as such.
        let plan = engine
            .query(q4)
            .with_variant(AnyKVariant::Rec)
            .explain()
            .unwrap();
        assert_eq!(plan.variant, Some(AnyKVariant::Rec));
    }

    #[test]
    fn batch_variant_agrees_on_cyclic_routes() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (3, 4, 0.125),
            (4, 1, 2.0),
            (2, 1, 4.0),
            (1, 3, 8.0),
        ]);
        for (label, q, m) in [
            ("triangle", triangle_query(), 3usize),
            ("c4", cycle_query(4), 4),
            ("c5", cycle_query(5), 5),
            ("chorded c5", chorded_cycle_query(5), 6),
        ] {
            let rels: Vec<Relation> = (0..m).map(|_| e.clone()).collect();
            let engine = Engine::from_query_bindings(&q, rels);
            let anyk: Vec<f64> = engine
                .query(q.clone())
                .plan()
                .unwrap()
                .map(|a| a.cost.scalar().unwrap())
                .collect();
            let batch: Vec<f64> = engine
                .query(q.clone())
                .with_variant(AnyKVariant::Batch)
                .plan()
                .unwrap()
                .map(|a| a.cost.scalar().unwrap())
                .collect();
            assert_eq!(anyk, batch, "{label}: batch vs any-k cost sequence");
        }
    }

    #[test]
    fn binding_errors_are_typed() {
        let e = edge_rel(&[(1, 2, 0.5)]);
        let q = triangle_query();
        let err = Engine::try_from_query_bindings(&q, vec![e.clone(), e.clone()]).unwrap_err();
        assert_eq!(
            err,
            EngineError::BindingCountMismatch {
                atoms: 3,
                relations: 2
            }
        );

        // Two atoms named E bound to different relations.
        let q2 = QueryBuilder::new()
            .atom("E", &["a", "b"])
            .atom("E", &["b", "c"])
            .build();
        let other = edge_rel(&[(9, 9, 9.0)]);
        let err = Engine::try_from_query_bindings(&q2, vec![e.clone(), other]).unwrap_err();
        assert_eq!(
            err,
            EngineError::ConflictingBindings {
                relation: "E".into()
            }
        );

        // Identical relations under a shared name are a valid self-join.
        assert!(Engine::try_from_query_bindings(&q2, vec![e.clone(), e]).is_ok());
    }

    #[test]
    fn plan_explain_renders() {
        let (engine, q) = path_engine();
        let plan = engine.query(q).explain().unwrap();
        let text = plan.explain();
        assert!(text.contains("route = acyclic"), "{text}");
        assert!(text.contains("join on"), "{text}");
    }

    #[test]
    fn prepare_then_stream_matches_plan() {
        let (engine, q) = path_engine();
        let ad_hoc: Vec<_> = engine.query(q.clone()).plan().unwrap().collect();
        let prepared = engine.prepare(q, RankSpec::Sum).unwrap();
        for _ in 0..3 {
            let again: Vec<_> = prepared.stream().collect();
            assert_eq!(again, ad_hoc, "each prepared stream replays the answers");
        }
    }

    #[test]
    fn plan_cache_hits_and_epoch_invalidation() {
        let (engine, q) = path_engine();
        assert_eq!(engine.cached_plans(), 0);
        let first: Vec<_> = engine.query(q.clone()).plan().unwrap().collect();
        assert_eq!(engine.cached_plans(), 1);
        // Same query + rank: served from cache (still one entry).
        let second: Vec<_> = engine.query(q.clone()).plan().unwrap().collect();
        assert_eq!(engine.cached_plans(), 1);
        assert_eq!(first, second);
        // Different rank: new entry.
        let _ = engine.query(q.clone()).rank_by(RankSpec::Max).plan();
        assert_eq!(engine.cached_plans(), 2);

        // Catalog update: epoch bumps, cache is invalidated, and the
        // next plan sees the new data.
        let epoch0 = engine.catalog_epoch();
        engine.register("R2", edge_rel(&[(10, 999, 0.0)]));
        assert_eq!(engine.catalog_epoch(), epoch0 + 1);
        assert_eq!(engine.cached_plans(), 0);
        let fresh: Vec<_> = engine.query(q).plan().unwrap().collect();
        assert_eq!(fresh.len(), 2, "one R2 row joins both R1 rows on b=10");
        assert!(fresh.iter().all(|a| a.ints()[2] == 999));
    }

    #[test]
    fn prepared_query_is_a_snapshot() {
        let (engine, q) = path_engine();
        let prepared = engine.prepare(q.clone(), RankSpec::Sum).unwrap();
        let before: Vec<_> = prepared.stream().collect();
        // Replace a relation after preparing: the prepared query keeps
        // serving its snapshot, while new plans see the update.
        engine.register("R2", edge_rel(&[(10, 999, 0.0)]));
        let after: Vec<_> = prepared.stream().collect();
        assert_eq!(before, after, "prepared state is immutable");
        let fresh: Vec<_> = engine.query(q).plan().unwrap().collect();
        assert_ne!(before, fresh);
    }

    #[test]
    fn cache_shares_artifact_across_part_and_rec() {
        let (engine, q) = path_engine();
        let part: Vec<_> = engine.query(q.clone()).plan().unwrap().collect();
        assert_eq!(engine.cached_plans(), 1);
        // Rec reuses the cached T-DP artifact (no new entry), only the
        // stream-time enumerator differs.
        let rec: Vec<Vec<i64>> = engine
            .query(q.clone())
            .with_variant(AnyKVariant::Rec)
            .plan()
            .unwrap()
            .map(|a| a.ints())
            .collect();
        assert_eq!(engine.cached_plans(), 1);
        assert_eq!(part.iter().map(|a| a.ints()).collect::<Vec<_>>(), rec);
        // A hit under the cached variant shares the entry's one plan;
        // only a request for another variant gets a copy recording it.
        let cached = engine.query(q.clone()).prepare().unwrap();
        let again = engine.query(q.clone()).prepare().unwrap();
        assert!(std::ptr::eq(cached.plan(), again.plan()));
        assert!(std::ptr::eq(cached.plan(), cached.stream().plan()));
        let as_rec = engine.query(q.clone()).with_variant(AnyKVariant::Rec);
        let as_rec = as_rec.prepare().unwrap();
        assert!(!std::ptr::eq(cached.plan(), as_rec.plan()));
        assert_eq!(as_rec.stream().plan().variant, Some(AnyKVariant::Rec));
        assert_eq!(cached.plan().variant, Some(AnyKVariant::default()));
        // Batch prepares a different artifact: second entry.
        let _ = engine
            .query(q)
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap();
        assert_eq!(engine.cached_plans(), 2);
    }

    #[test]
    fn triangle_cache_entry_serves_batch_and_anyk_alike() {
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (3, 1, 0.25)]);
        let q = triangle_query();
        // Any-k first, Batch second: the normalized entry is reused.
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e.clone()]);
        let anyk: Vec<_> = engine.query(q.clone()).plan().unwrap().collect();
        assert_eq!(engine.cached_plans(), 1);
        let batch: Vec<_> = engine
            .query(q.clone())
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap()
            .collect();
        assert_eq!(engine.cached_plans(), 1, "no duplicate triangle artifact");
        assert_eq!(anyk, batch);
        // Batch first, any-k second: same normalization.
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e]);
        let _ = engine
            .query(q.clone())
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap();
        assert_eq!(engine.cached_plans(), 1);
        let _ = engine.query(q).plan().unwrap();
        assert_eq!(engine.cached_plans(), 1, "no duplicate triangle artifact");
    }

    #[test]
    fn plan_cache_evicts_lru_materialized_entry_first() {
        let (engine, q) = path_engine();
        let engine = engine.with_cache_capacity(2);
        assert_eq!(engine.cache_capacity(), 2);

        // Two materialized (Batch) entries: Sum then Max.
        let _ = engine
            .query(q.clone())
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap();
        let _ = engine
            .query(q.clone())
            .rank_by(RankSpec::Max)
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap();
        assert_eq!(engine.cached_plans(), 2);

        // Touch the Sum entry: the Max entry becomes the LRU
        // materialized resident.
        let _ = engine
            .query(q.clone())
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap();
        assert_eq!(engine.cached_plans(), 2);

        // A third shape (T-DP, not materialized) exceeds capacity: the
        // LRU *materialized* entry (Max/Batch) must be evicted — not
        // the overall-LRU policy victim.
        let _ = engine.query(q.clone()).plan().unwrap();
        assert_eq!(engine.cached_plans(), 2);
        {
            let cache = engine.shared.cache.lock().unwrap();
            assert!(
                cache
                    .map
                    .keys()
                    .any(|k| !k.batch && k.rank == RankSpec::Sum),
                "the fresh T-DP entry stays"
            );
            assert!(
                cache.map.keys().any(|k| k.batch && k.rank == RankSpec::Sum),
                "the recently-used materialized entry stays"
            );
            assert!(
                !cache.map.keys().any(|k| k.rank == RankSpec::Max),
                "the LRU materialized entry is evicted first"
            );
        }

        // Epoch bump still purges everything at once.
        engine.register("R9", edge_rel(&[(1, 2, 0.0)]));
        assert_eq!(engine.cached_plans(), 0);
    }

    #[test]
    fn fresh_materialized_insert_is_not_its_own_victim() {
        // A hot materialized plan arriving into a cache full of cheap
        // T-DP entries must displace one of *them* — evicting the entry
        // just inserted would make every repeat of the hot query re-run
        // its full materialization.
        let (engine, q) = path_engine();
        let engine = engine.with_cache_capacity(2);
        for rank in [RankSpec::Sum, RankSpec::Max] {
            let _ = engine.query(q.clone()).rank_by(rank).plan().unwrap();
        }
        let _ = engine
            .query(q.clone())
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap();
        assert_eq!(engine.cached_plans(), 2);
        let cache = engine.shared.cache.lock().unwrap();
        assert!(
            cache.map.keys().any(|k| k.batch),
            "the just-inserted materialized entry is retained"
        );
        assert!(
            !cache
                .map
                .keys()
                .any(|k| !k.batch && k.rank == RankSpec::Sum),
            "the overall-LRU non-materialized entry goes instead"
        );
    }

    #[test]
    fn hot_materialized_entry_survives_cold_inserts() {
        // A materialized plan that keeps getting served must not be
        // sacrificed to every cold insert merely for being the only
        // heavy resident — materialized-first eviction only applies to
        // entries that are not the current most-recently-used.
        let (engine, q) = path_engine();
        let engine = engine.with_cache_capacity(2);
        let _ = engine
            .query(q.clone())
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap();
        let _ = engine.query(q.clone()).plan().unwrap(); // cold T-DP Sum
        for rank in [RankSpec::Max, RankSpec::Min, RankSpec::Prod] {
            // Keep the materialized entry hot, then push a cold shape.
            let _ = engine
                .query(q.clone())
                .with_variant(AnyKVariant::Batch)
                .plan()
                .unwrap();
            let _ = engine.query(q.clone()).rank_by(rank).plan().unwrap();
            let cache = engine.shared.cache.lock().unwrap();
            assert!(
                cache.map.keys().any(|k| k.batch),
                "hot materialized entry evicted by a cold {rank} insert"
            );
        }
        // Once it goes cold (not used while others churn), it is the
        // first to go again.
        let _ = engine
            .query(q.clone())
            .rank_by(RankSpec::Max)
            .plan()
            .unwrap();
        let _ = engine
            .query(q.clone())
            .rank_by(RankSpec::Sum)
            .plan()
            .unwrap();
        let cache = engine.shared.cache.lock().unwrap();
        assert!(
            !cache.map.keys().any(|k| k.batch),
            "a cold materialized entry is evicted first again"
        );
    }

    #[test]
    fn plan_cache_plain_lru_without_materialized_entries() {
        let (engine, q) = path_engine();
        let engine = engine.with_cache_capacity(2);
        // Three T-DP entries in insertion order Sum, Max, Min: with no
        // materialized residents, the overall LRU (Sum) goes.
        for rank in [RankSpec::Sum, RankSpec::Max, RankSpec::Min] {
            let _ = engine.query(q.clone()).rank_by(rank).plan().unwrap();
        }
        assert_eq!(engine.cached_plans(), 2);
        let cache = engine.shared.cache.lock().unwrap();
        assert!(!cache.map.keys().any(|k| k.rank == RankSpec::Sum));
        assert!(cache.map.keys().any(|k| k.rank == RankSpec::Max));
        assert!(cache.map.keys().any(|k| k.rank == RankSpec::Min));
    }

    #[test]
    fn plan_cache_capacity_zero_disables_caching() {
        let (engine, q) = path_engine();
        let engine = engine.with_cache_capacity(0);
        let a: Vec<_> = engine.query(q.clone()).plan().unwrap().collect();
        assert_eq!(engine.cached_plans(), 0, "nothing is retained");
        let b: Vec<_> = engine.query(q.clone()).plan().unwrap().collect();
        assert_eq!(engine.cached_plans(), 0);
        assert_eq!(a, b, "uncached planning still answers identically");
    }

    #[test]
    fn shrinking_cache_capacity_evicts_immediately() {
        let (engine, q) = path_engine();
        for rank in [RankSpec::Sum, RankSpec::Max, RankSpec::Min] {
            let _ = engine.query(q.clone()).rank_by(rank).plan().unwrap();
        }
        assert_eq!(engine.cached_plans(), 3);
        let engine = engine.with_cache_capacity(1);
        assert_eq!(engine.cached_plans(), 1, "set_capacity trims eagerly");
    }

    #[test]
    fn cache_stats_count_hits_misses_and_entries() {
        let (engine, q) = path_engine();
        assert_eq!(engine.cache_stats(), CacheStats::default_with(&engine));

        // First plan: a miss; second: a hit; a new rank: another miss.
        let _ = engine.query(q.clone()).plan().unwrap();
        let _ = engine.query(q.clone()).plan().unwrap();
        let _ = engine
            .query(q.clone())
            .rank_by(RankSpec::Max)
            .plan()
            .unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);

        // The triangle batch/any-k normalization's peek-serve is a hit.
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (3, 1, 0.25)]);
        let tq = triangle_query();
        let tri = Engine::from_query_bindings(&tq, vec![e.clone(), e.clone(), e]);
        let _ = tri.query(tq.clone()).plan().unwrap();
        let _ = tri
            .query(tq)
            .with_variant(AnyKVariant::Batch)
            .plan()
            .unwrap();
        let stats = tri.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // Epoch purge empties the cache but keeps the counters.
        engine.register("R9", edge_rel(&[(1, 2, 0.0)]));
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!((stats.hits, stats.misses), (1, 2));
        // A stale-epoch-free lookup after the purge is a plain miss.
        let _ = engine.query(q).plan().unwrap();
        assert_eq!(engine.cache_stats().misses, 3);
    }

    impl CacheStats {
        /// The all-zero baseline at an engine's configured capacity.
        fn default_with(engine: &Engine) -> CacheStats {
            CacheStats {
                capacity: engine.cache_capacity(),
                ..CacheStats::default()
            }
        }
    }

    #[test]
    fn cache_stats_count_capacity_evictions() {
        let (engine, q) = path_engine();
        let engine = engine.with_cache_capacity(2);
        for rank in [RankSpec::Sum, RankSpec::Max, RankSpec::Min, RankSpec::Prod] {
            let _ = engine.query(q.clone()).rank_by(rank).plan().unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2, "four inserts into capacity 2");
        assert_eq!(stats.misses, 4);
        // Shrinking the capacity evicts (and counts) immediately.
        let engine = engine.with_cache_capacity(1);
        assert_eq!(engine.cache_stats().evictions, 3);
        assert_eq!(engine.cache_stats().capacity, 1);
        // Disabling the cache counts the purged residents too.
        let engine = engine.with_cache_capacity(0);
        assert_eq!(engine.cache_stats().evictions, 4);
        assert_eq!(engine.cache_stats().entries, 0);
    }

    #[test]
    fn engine_clones_share_cache_and_catalog() {
        let (engine, q) = path_engine();
        let clone = engine.clone();
        let _ = engine.query(q.clone()).plan().unwrap();
        assert_eq!(clone.cached_plans(), 1, "clones see the same cache");
        clone.register("X", edge_rel(&[(1, 2, 0.0)]));
        assert_eq!(engine.catalog_epoch(), 1, "clones see the same catalog");
        assert!(engine.catalog().get("X").is_some());
    }

    #[test]
    fn resolution_hands_out_shared_handles() {
        let (engine, q) = path_engine();
        let catalog = engine.catalog();
        let live = resolve_live(&catalog, &q).unwrap();
        for (atom, resolved) in q.atoms().iter().zip(&live) {
            assert!(
                resolved
                    .full
                    .shares_payload(catalog.get(&atom.relation).unwrap()),
                "delta-free resolution must be a refcount bump, not a copy"
            );
            assert!(!resolved.has_deltas());
        }
    }

    /// A single edge relation rich enough to host triangles, 4-cycles,
    /// and 6-cycles with distinct weights.
    fn dense_edges() -> Relation {
        edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (2, 1, 2.0),
            (1, 3, 0.125),
            (3, 2, 4.0),
            (1, 4, 0.75),
            (4, 1, 0.375),
            (4, 5, 1.5),
            (5, 4, 0.0625),
            (5, 1, 3.0),
            (2, 4, 0.8125),
            (4, 2, 1.25),
        ])
    }

    #[test]
    fn warm_index_catalog_makes_prepare_a_lookup() {
        let e = dense_edges();
        let q = triangle_query();
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e]);
        assert_eq!(engine.index_stats().builds, 0);
        let first = engine.prepare(q.clone(), RankSpec::Sum).unwrap();
        let builds = engine.index_stats().builds;
        // One shared payload, two trie orders ([0,1] and [1,0]).
        assert_eq!(builds, 2);
        // A second engine over the same catalog has a *cold plan cache*
        // but a *warm index catalog*: prepare does zero trie builds.
        let cold_cache = Engine::new((*engine.catalog()).clone());
        assert_eq!(cold_cache.cached_plans(), 0);
        let second = cold_cache.prepare(q, RankSpec::Sum).unwrap();
        let stats = cold_cache.index_stats();
        assert_eq!(stats.builds, builds, "second prepare is pure index lookup");
        assert!(stats.hits >= 2, "both tries served resident");
        assert_eq!(first.stream().top_k(100), second.stream().top_k(100));
    }

    #[test]
    fn explain_reports_index_cached_after_warmup() {
        let e = dense_edges();
        for q in [
            triangle_query(),
            cycle_query(4),
            cycle_query(5),
            chorded_cycle_query(5),
        ] {
            let engine = Engine::from_query_bindings(&q, vec![e.clone(); q.num_atoms()]);
            let before = engine.query(q.clone()).explain().unwrap();
            assert_eq!(before.index, IndexUse::Built, "{before}");
            assert!(before.explain().contains("index = built"), "{before}");
            engine.prepare(q.clone(), RankSpec::Sum).unwrap();
            let after = engine.query(q.clone()).explain().unwrap();
            assert_eq!(after.index, IndexUse::Cached, "{after}");
            assert!(after.explain().contains("index = cached"), "{after}");
            // A fresh plan cache over the warm catalog builds nothing.
            let builds = engine.index_stats().builds;
            let warm = Engine::new((*engine.catalog()).clone());
            warm.prepare(q.clone(), RankSpec::Sum).unwrap();
            assert_eq!(warm.index_stats().builds, builds, "{after}");
        }
        // Acyclic plans never consult the shared index catalog.
        let (acyclic, pq) = path_engine();
        let plan = acyclic.query(pq).explain().unwrap();
        assert_eq!(plan.index, IndexUse::NotApplicable);
        assert!(plan.explain().contains("index = n/a"), "{plan}");
    }

    #[test]
    fn concurrent_prepares_build_each_index_once() {
        let e = dense_edges();
        let q = triangle_query();
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e]);
        // Fresh engines (separate plan caches) over one shared catalog:
        // only the index catalog can deduplicate the build work.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let eng = Engine::new((*engine.catalog()).clone());
                let q = q.clone();
                std::thread::spawn(move || {
                    eng.prepare(q, RankSpec::Sum).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            engine.index_stats().builds,
            2,
            "each distinct trie order built exactly once across threads"
        );
    }

    #[test]
    fn catalog_update_keeps_unrelated_indexes_warm() {
        let e = dense_edges();
        let q = triangle_query();
        let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e]);
        let baseline: Vec<_> = engine
            .prepare(q.clone(), RankSpec::Sum)
            .unwrap()
            .stream()
            .collect();
        let builds = engine.index_stats().builds;
        // An unrelated registration bumps the epoch (plan cache purged)
        // but must not touch the triangle's resident tries.
        engine.register("Unrelated", edge_rel(&[(7, 8, 0.0)]));
        assert_eq!(engine.cached_plans(), 0, "epoch bump purges the plan cache");
        let warm: Vec<_> = engine
            .prepare(q.clone(), RankSpec::Sum)
            .unwrap()
            .stream()
            .collect();
        assert_eq!(
            engine.index_stats().builds,
            builds,
            "re-prepare after an unrelated update is an index lookup"
        );
        assert_eq!(baseline, warm);
        // Replacing a participating relation invalidates its payload's
        // tries; the next prepare rebuilds against the new data.
        engine.register("R1", dense_edges());
        engine.prepare(q, RankSpec::Sum).unwrap();
        assert!(
            engine.index_stats().builds > builds,
            "replaced relation forces fresh builds"
        );
    }

    #[test]
    fn shared_indexes_preserve_answers_across_routes_and_rankings() {
        let e = dense_edges();
        for (label, q, n) in [
            ("triangle", triangle_query(), 3),
            ("cycle(4)", cycle_query(4), 4),
            ("cycle(6)", cycle_query(6), 6),
            ("chorded cycle(6)", chorded_cycle_query(6), 7),
        ] {
            let rels: Vec<Relation> = (0..n).map(|_| e.clone()).collect();
            let warm = Engine::from_query_bindings(&q, rels.clone());
            // Warm every trie the routes request, then serve each
            // ranking from a fresh plan cache over the warm catalog.
            warm.prepare(q.clone(), RankSpec::Sum).unwrap();
            let warm = Engine::new((*warm.catalog()).clone());
            for rank in [RankSpec::Sum, RankSpec::Max, RankSpec::Lex] {
                let cold = Engine::from_query_bindings(&q, rels.clone());
                let want: Vec<_> = cold.prepare(q.clone(), rank).unwrap().stream().collect();
                let got: Vec<_> = warm.prepare(q.clone(), rank).unwrap().stream().collect();
                assert!(!want.is_empty(), "{label}/{rank}: no answers");
                assert_eq!(want, got, "{label}/{rank}: warm-index answers diverge");
            }
        }
    }

    #[test]
    fn append_is_typed_and_counted() {
        let (engine, _) = path_engine();
        let err = engine.append("Nope", edge_rel(&[(1, 2, 0.0)])).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Storage(StorageError::RelationNotFound { .. })
        ));
        let mut bad = RelationBuilder::new(Schema::new(["a", "b", "c"]));
        bad.push_ints(&[1, 2, 3], 0.0);
        let err = engine.append("R1", bad.finish()).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Storage(StorageError::ArityMismatch { .. })
        ));
        let err = engine
            .append("R1#frag", edge_rel(&[(1, 2, 0.0)]))
            .unwrap_err();
        assert!(matches!(err, EngineError::ReservedRelationName { .. }));
        assert_eq!(engine.write_stats(), WriteStats::default());

        engine.append("R1", edge_rel(&[(9, 10, 0.7)])).unwrap();
        engine.append("R1", edge_rel(&[(8, 10, 0.9)])).unwrap();
        let w = engine.write_stats();
        assert_eq!(w.appends, 2);
        assert_eq!(w.appended_rows, 2);
        assert_eq!(w.compactions, 0);
    }

    #[test]
    fn append_invalidates_only_dependent_plans() {
        let (engine, q) = path_engine();
        // Plan A reads R1 and R2; plan B reads only R2.
        let _ = engine.query(q.clone()).plan().unwrap();
        let q_b = QueryBuilder::new().atom("R2", &["b", "c"]).build();
        let _ = engine.query(q_b.clone()).plan().unwrap();
        assert_eq!(engine.cached_plans(), 2);
        assert_eq!(engine.catalog_epoch(), 0);

        engine.append("R1", edge_rel(&[(9, 10, 0.7)])).unwrap();
        assert_eq!(engine.catalog_epoch(), 0, "appends never bump the epoch");
        assert_eq!(
            engine.cached_plans(),
            2,
            "the dependent plan is invalidated, then refreshed in place by the write path"
        );
        assert_eq!(engine.write_stats().invalidated_plans, 1);
        let (_, report) = engine
            .query(q_b)
            .rank_by(RankSpec::Sum)
            .prepare_report()
            .unwrap();
        assert!(report.cache_hit, "the untouched plan stays served");
        let (prepared, report) = engine
            .query(q.clone())
            .rank_by(RankSpec::Sum)
            .prepare_report()
            .unwrap();
        assert!(
            report.cache_hit,
            "the write path refreshed the dependent plan — the reader never misses"
        );
        assert_eq!(
            prepared.plan().deltas,
            1,
            "the refreshed entry is the delta-aware union, not the stale base plan"
        );
    }

    #[test]
    fn appended_rows_join_the_answers() {
        let (engine, q) = path_engine();
        assert_eq!(engine.query(q.clone()).plan().unwrap().count(), 4);
        // New R1 row joining R2's b=10 rows adds two answers; the plan
        // now unions one delta term in.
        engine.append("R1", edge_rel(&[(7, 10, 0.01)])).unwrap();
        let plan = engine.query(q.clone()).explain().unwrap();
        assert_eq!(plan.deltas, 1);
        assert!(plan.explain().contains("deltas = 1"), "{plan}");
        let all: Vec<_> = engine.query(q.clone()).plan().unwrap().collect();
        assert_eq!(all.len(), 6);
        assert!(all.windows(2).all(|w| w[0].cost <= w[1].cost));
        assert_eq!(all[0].ints(), vec![7, 10, 200], "cheapest is the new row");

        // The flattened content served through the delta union equals a
        // fresh single-payload engine over the same rows.
        let flat = Engine::new(engine.catalog().flattened());
        let want: Vec<_> = flat.query(q.clone()).plan().unwrap().collect();
        assert_eq!(all, want);

        // Compaction folds the deltas; answers are unchanged.
        assert!(engine.compact("R1").unwrap());
        assert!(!engine.compact("R1").unwrap(), "second compact is a no-op");
        assert_eq!(engine.query(q.clone()).explain().unwrap().deltas, 0);
        let after: Vec<_> = engine.query(q).plan().unwrap().collect();
        assert_eq!(after, want);
        assert_eq!(engine.write_stats().compactions, 1);
    }

    #[test]
    fn open_streams_are_snapshot_isolated() {
        let (engine, q) = path_engine();
        let mut stream = engine.query(q.clone()).plan().unwrap();
        let first = stream.next_batch(1);
        engine.append("R1", edge_rel(&[(7, 10, 0.01)])).unwrap();
        let rest = stream.next_batch(100);
        assert_eq!(
            first.len() + rest.len(),
            4,
            "a mid-stream append is invisible to the open stream"
        );
        assert_eq!(engine.query(q).plan().unwrap().count(), 6);
    }

    /// Three complete 6-node graphs with dyadic weights: every row of
    /// an [`r1_batch`] closes six triangles.
    fn refresh_engine() -> Engine {
        let edges = |salt: i64| -> Vec<(i64, i64, f64)> {
            (0..36)
                .map(|i| (i / 6, i % 6, 0.125 * ((i * 7 + salt) % 9) as f64))
                .collect()
        };
        let mut catalog = Catalog::new();
        for (name, salt) in [("R1", 1), ("R2", 2), ("R3", 3)] {
            catalog.register(name, edge_rel(&edges(salt)));
        }
        Engine::new(catalog)
    }

    fn r1_batch(step: i64) -> Relation {
        edge_rel(&[
            (step % 6, (step + 1) % 6, 0.25 * (step % 5) as f64),
            ((step + 3) % 6, step % 6, 0.5),
        ])
    }

    #[test]
    fn a_refresh_keeps_extends_or_rebuilds_each_term_and_counts_it() {
        let engine = refresh_engine();
        let path = QueryBuilder::new()
            .atom("R1", &["x", "y"])
            .atom("R2", &["y", "z"])
            .build();
        let triangle = QueryBuilder::new()
            .atom("R1", &["x", "y"])
            .atom("R2", &["y", "z"])
            .atom("R3", &["z", "x"])
            .build();
        let self_join = QueryBuilder::new()
            .atom("R1", &["x", "y"])
            .atom("R1", &["y", "z"])
            .build();
        let plans = [path, triangle, self_join];
        for q in &plans {
            engine.prepare(q.clone(), RankSpec::Sum).unwrap();
        }
        // (kept, extended, rebuilt) of one write's refreshes.
        let terms_of = |write: &dyn Fn()| {
            let before = engine.write_stats();
            write();
            let after = engine.write_stats();
            assert_eq!(after.invalidated_plans - before.invalidated_plans, 3);
            (
                after.terms_kept - before.terms_kept,
                after.terms_extended - before.terms_extended,
                after.terms_rebuilt - before.terms_rebuilt,
            )
        };
        let append = |step: i64| {
            terms_of(&|| {
                engine.append("R1", r1_batch(step)).unwrap();
            })
        };
        // The first append to a delta-free relation: every plan keeps
        // the term it was (the all-base term) and builds R1's first
        // delta term(s) — one for the path and the triangle, one per
        // occurrence for the self-join.
        let first = (3, 0, 1 + 1 + 2);
        // Every later one: all-base terms kept; the triangle's
        // materialized delta term extended by the batch; the path's
        // T-DP term rebuilt; the self-join's `(D, B)` rebuilt because
        // it is T-DP state and its `(F, D)` because it grew twice.
        let later = (3, 1, 1 + 2);
        assert_eq!(append(0), first);
        for step in 1..16 {
            assert_eq!(append(step), later, "append {step}");
        }
        // A compaction swaps the base under every term.
        assert_eq!(
            terms_of(&|| assert!(engine.compact("R1").unwrap())),
            (0, 0, 3)
        );
        assert_eq!(append(16), first, "the compacted base's term is kept");
        assert_eq!(append(17), later);
        let w = engine.write_stats();
        assert_eq!(
            (w.terms_kept, w.terms_extended, w.terms_rebuilt),
            (18 * 3, 15 + 1, 2 * 4 + 16 * 3 + 3)
        );

        // What the chain of refreshes left in the cache serves the
        // bytes of a fresh engine over the same rows.
        let fresh = Engine::new(engine.catalog().flattened());
        for q in &plans {
            let (prepared, report) = engine.query(q.clone()).prepare_report().unwrap();
            assert!(report.cache_hit, "{q}: the refresh left the plan cached");
            let got: Vec<_> = prepared.stream().collect();
            let want: Vec<_> = (fresh.prepare(q.clone(), RankSpec::Sum).unwrap())
                .stream()
                .canonical_ties()
                .collect();
            assert!(got.len() > 24, "{q}");
            assert_eq!(got, want, "{q}");
        }
    }

    #[test]
    fn a_stream_open_across_an_extension_finishes_on_its_snapshot() {
        let engine = refresh_engine();
        let q = triangle_query();
        engine.prepare(q.clone(), RankSpec::Sum).unwrap();
        engine.append("R1", r1_batch(0)).unwrap();
        // A reference stream makes the delta term's artifact sorted; the
        // held one then reads it as a cursor, half-way through.
        let prepared = engine.prepare(q.clone(), RankSpec::Sum).unwrap();
        let want: Vec<_> = prepared.stream().collect();
        let mut held = prepared.stream();
        let head = held.next_batch(want.len() / 2);

        engine.append("R1", r1_batch(1)).unwrap();
        assert_eq!(engine.write_stats().terms_extended, 1);
        let grown: Vec<_> = (engine.prepare(q.clone(), RankSpec::Sum).unwrap())
            .stream()
            .collect();
        assert!(grown.len() > want.len(), "the batch closes new triangles");

        let tail: Vec<_> = held.collect();
        assert_eq!(
            [head, tail].concat(),
            want,
            "the extension copied, it did not grow in place"
        );
    }

    #[test]
    fn delta_heavy_relation_auto_compacts() {
        let (engine, q) = path_engine();
        // R1 has 3 base rows; the floor dominates, so it takes
        // MIN_COMPACT_ROWS appended rows to trigger auto-compaction.
        let rows_needed = anyk_storage::MIN_COMPACT_ROWS;
        let mut appended = 0usize;
        while appended < rows_needed {
            engine
                .append("R1", edge_rel(&[(900 + appended as i64, 1, 5.0)]))
                .unwrap();
            appended += 1;
        }
        let w = engine.write_stats();
        assert_eq!(w.appends as usize, appended);
        assert_eq!(w.compactions, 1, "threshold crossing compacts exactly once");
        assert!(
            engine
                .catalog()
                .entry("R1")
                .is_some_and(|e| !e.has_deltas()),
            "deltas folded into the base"
        );
        assert_eq!(engine.query(q).plan().unwrap().count(), 4);
    }

    #[test]
    fn an_append_reports_its_own_deltas_and_only_the_crossing_one_compacts() {
        let (engine, _) = path_engine();
        // R1 has 3 base rows, so the floor decides: the fourth quarter
        // of MIN_COMPACT_ROWS brings the tail to the threshold.
        let quarter = |from: i64| {
            let rows = anyk_storage::MIN_COMPACT_ROWS as i64 / 4;
            edge_rel(&(from..from + rows).map(|u| (u, 1, 5.0)).collect::<Vec<_>>())
        };
        let outcome = |deltas, compacted| Appended { deltas, compacted };
        for deltas in 1..=3 {
            let appended = engine.append("R1", quarter(1000 * deltas as i64)).unwrap();
            assert_eq!(appended, outcome(deltas, false));
        }
        // A write to another relation reports that relation's state.
        assert_eq!(
            engine.append("R2", edge_rel(&[(7, 8, 0.5)])).unwrap(),
            outcome(1, false)
        );
        assert_eq!(
            engine.append("R1", quarter(5000)).unwrap(),
            outcome(0, true)
        );
        assert_eq!(
            engine.append("R1", quarter(6000)).unwrap(),
            outcome(1, false)
        );
        assert_eq!(engine.write_stats().compactions, 1);
    }
}
