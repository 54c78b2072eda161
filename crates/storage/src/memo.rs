//! The one keyed, build-once, weight-bounded LRU store, behind both
//! caches: the index catalog's shared tries
//! ([`IndexCatalog`](crate::IndexCatalog)) and the engine's plans.
//!
//! * **Single flight.** A key's first caller installs an empty
//!   `Arc<OnceLock<_>>` cell under the map lock and builds outside it;
//!   concurrent callers of that key wait on the cell, every other key
//!   stays available. An `Err` reaches every waiter and is dropped.
//! * **Freshness is the caller's.** A value is served, resident or
//!   awaited, only while the caller's `fresh` holds; otherwise a new
//!   build replaces it.
//! * **LRU by weight.** A value is weighed once, when its build
//!   settles; while the total exceeds the capacity the least recently
//!   used resident entries go (logical ticks, no clocks). An entry in
//!   flight weighs nothing and is never a victim; the entry that just
//!   settled is never its own.

use crate::fxhash::FxHashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A key's build-once cell, shared by every caller that waits on it.
type Cell<V, E> = Arc<OnceLock<Result<V, E>>>;

/// A snapshot of a [`Memo`]'s counters and residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups an existing entry served, resident or in flight.
    pub hits: u64,
    /// Lookups that installed an entry (none there, or not fresh).
    pub misses: u64,
    /// Builds that finished (callers waiting on one share it).
    pub builds: u64,
    /// Resident entries the capacity removed (removals by
    /// [`Memo::remove_if`] are not evictions).
    pub evictions: u64,
    /// Total weight of the resident entries.
    pub weight: usize,
    /// Entries, in flight included.
    pub entries: usize,
    /// The weight budget evictions enforce.
    pub capacity: usize,
}

#[derive(Debug)]
struct Entry<V, E> {
    cell: Cell<V, E>,
    /// The settled value's weight; 0 while in flight.
    weight: usize,
    last_used: u64,
}

impl<V, E> Entry<V, E> {
    /// The settled value, unless in flight or failed.
    fn value(&self) -> Option<&V> {
        self.cell.get()?.as_ref().ok()
    }
}

#[derive(Debug)]
struct Inner<K, V, E> {
    map: FxHashMap<K, Entry<V, E>>,
    tick: u64,
    /// Every field but `entries`, which is the map's length.
    stats: MemoStats,
}

impl<K: Eq + Hash + Clone, V, E> Inner<K, V, E> {
    /// Evict least-recently-used entries other than `keep` until the
    /// weight fits the capacity or nothing left would free any.
    fn evict_over_capacity(&mut self, keep: &K) {
        while self.stats.weight > self.stats.capacity {
            let victim = (self.map.iter())
                .filter(|(k, e)| e.weight > 0 && *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(e) = victim.and_then(|k| self.map.remove(&k)) else {
                break;
            };
            self.stats.weight -= e.weight;
            self.stats.evictions += 1;
        }
    }
}

/// A keyed, build-once, weight-bounded LRU store (see module docs).
/// `E` is the build's error type.
#[derive(Debug)]
pub struct Memo<K, V, E = std::convert::Infallible> {
    inner: Mutex<Inner<K, V, E>>,
}

impl<K: Eq + Hash + Clone, V: Clone, E: Clone> Memo<K, V, E> {
    /// An empty store whose resident weight is bounded by `capacity`.
    pub fn new(capacity: usize) -> Self {
        Memo {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                tick: 0,
                stats: MemoStats {
                    capacity,
                    ..MemoStats::default()
                },
            }),
        }
    }

    /// The map, locked. Every critical section is one lookup, install,
    /// settle, eviction sweep, removal sweep or counter read; builds
    /// run outside it, and the only caller code inside one is a `fresh`
    /// or `remove_if` predicate, which must take no lock — so the memo
    /// is a leaf under any lock its caller holds (the engine's catalog
    /// write guard, around a write's removal sweep). After a panic in one the map holds
    /// whole entries and the weight is still theirs (a removal
    /// subtracts an entry's weight as it takes the entry out): at worst
    /// a counter tick is lost.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V, E>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value for `key` and whether this call built it. A resident
    /// value, or one awaited in flight, is served while `fresh` holds
    /// for it; otherwise this call installs a new entry and runs
    /// `build`, unless a concurrent caller of the entry gets to it
    /// first. A settled value is weighed by `weigh`; a build's error
    /// reaches every caller waiting on it and leaves no entry.
    pub fn get_or_build(
        &self,
        key: K,
        fresh: impl Fn(&V) -> bool,
        mut build: impl FnMut(&K) -> Result<V, E>,
        weigh: impl Fn(&V) -> usize,
    ) -> Result<(V, bool), E> {
        loop {
            let (cell, installed) = 'lookup: {
                let mut guard = self.lock();
                let inner = &mut *guard;
                inner.tick += 1;
                if let Some(e) = inner.map.get_mut(&key) {
                    e.last_used = inner.tick;
                    match e.cell.get() {
                        None => break 'lookup (Arc::clone(&e.cell), false),
                        Some(Ok(v)) if fresh(v) => {
                            let v = v.clone();
                            inner.stats.hits += 1;
                            return Ok((v, false));
                        }
                        Some(_) => {}
                    }
                }
                let cell: Cell<V, E> = Arc::default();
                let entry = Entry {
                    cell: Arc::clone(&cell),
                    weight: 0,
                    last_used: inner.tick,
                };
                let replaced = inner.map.insert(key.clone(), entry);
                inner.stats.weight -= replaced.map_or(0, |e| e.weight);
                inner.stats.misses += 1;
                (cell, true)
            };
            let mut built = false;
            let out = cell.get_or_init(|| {
                built = true;
                build(&key)
            });
            if built {
                self.settle(&key, &cell, out.as_ref().ok().map(&weigh));
            }
            match out {
                Ok(v) if built || fresh(v) => {
                    if !installed {
                        self.lock().stats.hits += 1;
                    }
                    return Ok((v.clone(), built));
                }
                Err(e) => return Err(e.clone()),
                // Built by a caller it is not fresh for: go round.
                Ok(_) => {}
            }
        }
    }

    /// Account a finished build of `key` into `cell`, `weight` `None`
    /// for an error. Only an entry that still holds `cell` takes the
    /// weight (or goes, on an error): a key removed and requested again
    /// while the build ran has a new entry this build did not fill.
    fn settle(&self, key: &K, cell: &Cell<V, E>, weight: Option<usize>) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stats.builds += 1;
        match (inner.map.get_mut(key), weight) {
            (Some(e), Some(weight)) if Arc::ptr_eq(&e.cell, cell) => {
                e.weight = weight;
                inner.stats.weight += weight;
                inner.evict_over_capacity(key);
            }
            (Some(e), None) if Arc::ptr_eq(&e.cell, cell) => {
                inner.map.remove(key);
            }
            _ => {}
        }
    }

    /// Is a value for `key` resident? Builds nothing, touches no
    /// recency.
    pub fn probe(&self, key: &K) -> bool {
        let inner = self.lock();
        (inner.map.get(key)).is_some_and(|e| e.value().is_some())
    }

    /// Take out every entry `pred` selects by its key and value (`None`
    /// while in flight) and return them. A removed entry's build in
    /// flight still reaches its waiters but leaves nothing resident.
    pub fn remove_if(&self, mut pred: impl FnMut(&K, Option<&V>) -> bool) -> Vec<(K, Option<V>)> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let weight = &mut inner.stats.weight;
        let removed: Vec<_> = (inner.map)
            .extract_if(|k, e| {
                let take = pred(k, e.value());
                *weight -= if take { e.weight } else { 0 };
                take
            })
            .collect();
        drop(guard);
        (removed.into_iter())
            .map(|(k, e)| (k, e.value().cloned()))
            .collect()
    }

    /// Current counters and residency.
    pub fn stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    type Store = Memo<&'static str, usize, String>;

    /// Build `key` as its length, weighed at the value.
    fn get(memo: &Store, key: &'static str) -> (usize, bool) {
        memo.get_or_build(key, |_| true, |k| Ok(k.len()), |v| *v)
            .unwrap()
    }

    fn resident(memo: &Store) -> Vec<&'static str> {
        let mut keys: Vec<_> = ["a", "bb", "ccc", "dddd", "eeeee"]
            .into_iter()
            .filter(|k| memo.probe(k))
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn lru_by_weight_evicts_least_recently_used_first() {
        // Room for weight 6: "a" + "bb" + "ccc" fill it exactly.
        let memo = Store::new(6);
        for k in ["a", "bb", "ccc"] {
            assert_eq!(get(&memo, k), (k.len(), true));
        }
        assert_eq!(memo.stats().weight, 6);
        // Touch "a": "bb" is now the least recently used.
        assert_eq!(get(&memo, "a"), (1, false));
        // "dddd" (4) must free 4: "bb" (2) then "ccc" (3) go, "a" stays.
        get(&memo, "dddd");
        assert_eq!(resident(&memo), ["a", "dddd"]);
        let s = memo.stats();
        assert_eq!((s.weight, s.entries, s.evictions), (5, 2, 2));
        assert_eq!((s.hits, s.misses, s.builds), (1, 4, 4));
    }

    #[test]
    fn the_newest_entry_is_never_its_own_victim() {
        let memo = Store::new(3);
        get(&memo, "a");
        // Heavier than the whole budget: everything else goes, it stays.
        get(&memo, "eeeee");
        assert_eq!(resident(&memo), ["eeeee"]);
        let s = memo.stats();
        assert_eq!((s.weight, s.evictions), (5, 1));
        assert!(s.weight > s.capacity, "nothing else is left to evict");
        // The next settle evicts it like any other LRU entry.
        get(&memo, "bb");
        assert_eq!(resident(&memo), ["bb"]);
        assert_eq!(memo.stats().evictions, 2);
    }

    #[test]
    fn an_entry_in_flight_is_never_weighed_or_evicted() {
        let memo = Store::new(2);
        get(&memo, "a");
        let mut during = None;
        // While "eeeee" builds, another key settles over the budget: its
        // sweep may take "a" but not the entry still in flight.
        let (v, built) = (memo.get_or_build(
            "eeeee",
            |_| true,
            |k| {
                get(&memo, "ccc");
                during = Some((memo.stats(), resident(&memo)));
                Ok(k.len())
            },
            |v| *v,
        ))
        .unwrap();
        assert_eq!((v, built), (5, true));
        let (s, keys) = during.unwrap();
        assert_eq!(keys, ["ccc"], "\"a\" went, the in-flight entry did not");
        assert_eq!((s.weight, s.entries, s.evictions), (3, 2, 1));
        // Settling "eeeee" evicts "ccc", never itself.
        assert_eq!(resident(&memo), ["eeeee"]);
        assert_eq!(memo.stats().weight, 5);
    }

    #[test]
    fn probe_neither_builds_nor_touches_recency() {
        let memo = Store::new(5);
        assert!(!memo.probe(&"a"));
        assert_eq!(
            memo.stats(),
            MemoStats {
                capacity: 5,
                ..MemoStats::default()
            }
        );
        get(&memo, "a");
        get(&memo, "bb");
        // Probing "a" does not make it recent: "ccc" evicts it, not "bb".
        assert!(memo.probe(&"a"));
        get(&memo, "ccc");
        assert_eq!(resident(&memo), ["bb", "ccc"]);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (0, 3));
    }

    #[test]
    fn a_stale_value_is_rebuilt_and_replaces_its_entry() {
        let memo = Store::new(10);
        get(&memo, "ccc");
        let (v, built) = (memo.get_or_build("ccc", |v| *v > 3, |_| Ok(7), |v| *v)).unwrap();
        assert_eq!((v, built), (7, true));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.weight), (0, 2, 1, 7));
    }

    #[test]
    fn an_error_reaches_every_waiter_and_is_not_resident() {
        let memo = Store::new(10);
        let start = Barrier::new(4);
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        memo.get_or_build(
                            "bb",
                            |_| true,
                            |_| {
                                builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                Err("no".to_string())
                            },
                            |v| *v,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(outcomes.iter().all(|o| o == &Err("no".to_string())));
        let s = memo.stats();
        assert_eq!((s.entries, s.weight), (0, 0), "no error stays resident");
        assert_eq!(s.builds as usize, builds.into_inner());
        // The next call builds afresh.
        assert_eq!(get(&memo, "bb"), (2, true));
    }

    #[test]
    fn concurrent_callers_of_one_key_build_once() {
        let memo = Store::new(10);
        let start = Barrier::new(8);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        memo.get_or_build(
                            "dddd",
                            |_| true,
                            |k| {
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                Ok(k.len())
                            },
                            |v| *v,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        assert_eq!(outcomes.iter().filter(|(_, built)| *built).count(), 1);
        assert!(outcomes.iter().all(|(v, _)| *v == 4));
        let s = memo.stats();
        assert_eq!((s.misses, s.builds, s.hits), (1, 1, 7));
        assert_eq!(s.weight, 4);
    }

    #[test]
    fn a_build_outrun_by_its_removal_adds_no_weight() {
        // The build of "ccc" removes its own key and requests it again,
        // as a write racing a prepare over an older snapshot does: the
        // first build must not land its weight on the second's entry.
        let memo = Store::new(100);
        let (v, built) = (memo.get_or_build(
            "ccc",
            |_| true,
            |k| {
                assert_eq!(memo.remove_if(|key, _| key == k).len(), 1);
                get(&memo, "ccc");
                Ok(k.len())
            },
            |v| *v,
        ))
        .unwrap();
        assert_eq!((v, built), (3, true));
        let s = memo.stats();
        assert_eq!((s.entries, s.builds), (1, 2));
        assert_eq!(s.weight, 3, "the resident entry's weight, counted once");
    }

    #[test]
    fn remove_if_sees_in_flight_entries_and_is_not_an_eviction() {
        let memo = Store::new(100);
        get(&memo, "a");
        get(&memo, "bb");
        let mut seen = Vec::new();
        memo.get_or_build(
            "ccc",
            |_| true,
            |k| {
                let removed = memo.remove_if(|key, v| {
                    seen.push((*key, v.copied()));
                    *key != "a"
                });
                assert_eq!(removed.len(), 2);
                Ok(k.len())
            },
            |v| *v,
        )
        .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, [("a", Some(1)), ("bb", Some(2)), ("ccc", None)]);
        assert_eq!(resident(&memo), ["a"]);
        let s = memo.stats();
        assert_eq!((s.weight, s.evictions), (1, 0));
    }
}
