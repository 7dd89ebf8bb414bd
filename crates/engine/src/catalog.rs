//! The representation catalog: a concurrent, memory-budgeted cache of built
//! [`CompressedView`]s.
//!
//! The paper's regime is *build once, answer many*: a compressed
//! representation is amortized over a stream of access requests. The catalog
//! owns that amortization. It maps a [`CatalogKey`] — normalized query
//! text, adornment and strategy tag — to an `Arc<CompressedView>`, so that
//! repeated requests (and distinct registered names for the same view)
//! never rebuild. When the deterministic [`HeapSize`] accounting exceeds
//! the configured byte budget, eviction is **cost-aware**: the victim is
//! the entry with the highest bytes ÷ build-work ratio — the one that
//! frees the most memory per unit of work it would cost to bring back —
//! with plain LRU recency as the tie-break. The builder counts that work
//! and hands it over with the entry, so the ranking reads no clock and is
//! the same on every host.
//!
//! Since the database became versioned, every entry additionally carries
//! the [`Epoch`] it was built (or maintained) at. A lookup passes the
//! epoch of the database snapshot it is serving from; an entry stamped
//! older is **stale** — it was built before some applied delta — and is
//! invalidated on the spot instead of served wrong. [`Catalog::restamp`]
//! lets the engine mark entries that a delta provably did not affect, and
//! [`Catalog::invalidate_stale`] sweeps eagerly.

use cqc_common::heap::HeapSize;
use cqc_common::FastMap;
use cqc_core::CompressedView;
use cqc_storage::Epoch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Cache key: one entry per distinct (view, adornment, strategy) triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CatalogKey {
    /// [`cqc_query::ConjunctiveQuery::normalized_text`] of the view's query.
    pub normalized_query: String,
    /// The access pattern string (e.g. `"bfb"`).
    pub pattern: String,
    /// A canonical tag of the resolved strategy (e.g. `"theorem-1 τ=2.00"`).
    pub strategy_tag: String,
}

/// Counters describing catalog effectiveness. `builds` counts every
/// representation construction (including rebuilds after eviction or
/// invalidation), which is what the zero-rebuild acceptance tests assert
/// on; delta-maintained insertions are counted separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Representations built (registrations + rebuilds after eviction or
    /// invalidation).
    pub builds: u64,
    /// Maintained representations installed without a rebuild.
    pub maintained: u64,
    /// Entries evicted to respect the memory budget.
    pub evictions: u64,
    /// Entries dropped because their epoch stamp was older than the
    /// database they were asked to serve (lazy lookups + explicit sweeps).
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Deterministic heap bytes currently resident.
    pub resident_bytes: usize,
    /// The configured budget.
    pub budget_bytes: usize,
    /// Live allocations in the engine's index store (0 from a bare
    /// [`Catalog`]; [`crate::Engine::catalog_stats`] fills the five store
    /// fields in).
    pub index_store_indexes: usize,
    /// Their bytes, each allocation once — `resident_bytes` counts an
    /// `Arc`-shared index once per holding view and structure.
    pub index_store_bytes: usize,
    /// Index requests the store answered with a resident index.
    pub index_store_hits: u64,
    /// Indexes the store sorted from a relation.
    pub index_store_builds: u64,
    /// Indexes the store produced by merging a delta into a resident one.
    pub index_store_merges: u64,
}

struct Slot {
    view: Arc<CompressedView>,
    bytes: usize,
    /// Database epoch this representation is valid for.
    epoch: Epoch,
    /// Counted work of the build that produced the entry (a maintained
    /// entry keeps its build's count).
    build_work: u64,
    /// Logical-clock tick of the last lookup; atomic so cache hits can
    /// refresh recency under the shared lock.
    last_used: AtomicU64,
}

impl Slot {
    /// Bytes reclaimed per unit of rebuild work — higher means a better
    /// eviction victim (large footprint, cheap to bring back).
    fn evict_score(&self) -> f64 {
        self.bytes as f64 / self.build_work.max(1) as f64
    }
}

#[derive(Default)]
struct Inner {
    map: FastMap<CatalogKey, Slot>,
    resident_bytes: usize,
}

impl Inner {
    fn remove(&mut self, key: &CatalogKey) -> bool {
        if let Some(slot) = self.map.remove(key) {
            self.resident_bytes -= slot.bytes;
            true
        } else {
            false
        }
    }
}

impl CatalogStats {
    /// The catalog's own counters as `(name, value)` pairs, in field order:
    /// what a `Stats` reply carries. The five index-store fields are the
    /// store's [`cqc_storage::IndexPoolStats`], reported beside them.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        let CatalogStats {
            hits,
            misses,
            builds,
            maintained,
            evictions,
            invalidations,
            entries,
            resident_bytes,
            budget_bytes,
            index_store_indexes: _,
            index_store_bytes: _,
            index_store_hits: _,
            index_store_builds: _,
            index_store_merges: _,
        } = *self;
        let n = |v: usize| v as u64;
        vec![
            ("hits", hits),
            ("misses", misses),
            ("builds", builds),
            ("maintained", maintained),
            ("evictions", evictions),
            ("invalidations", invalidations),
            ("entries", n(entries)),
            ("resident_bytes", n(resident_bytes)),
            ("budget_bytes", n(budget_bytes)),
        ]
    }
}

/// The concurrent representation cache.
///
/// Reads take a shared lock (lookups clone an `Arc` out); only insertion,
/// eviction and invalidation take the exclusive lock. Recency is tracked
/// with a lock-free logical clock so hits on the shared path still update
/// LRU order.
pub struct Catalog {
    inner: RwLock<Inner>,
    /// Per-key build serialization: concurrent misses on the *same* key —
    /// including through different registered names aliasing one view —
    /// build once. Keyed here rather than per registered view so aliases
    /// share the lock.
    build_locks: Mutex<FastMap<CatalogKey, Arc<Mutex<()>>>>,
    budget_bytes: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    maintained: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Catalog {
    /// An empty catalog holding at most `budget_bytes` of representations
    /// (a single oversized entry is still admitted — the budget bounds
    /// *retained* memory, not the largest buildable view).
    pub fn new(budget_bytes: usize) -> Catalog {
        Catalog {
            inner: RwLock::new(Inner::default()),
            build_locks: Mutex::new(FastMap::default()),
            budget_bytes,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            maintained: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks `key` up for a request serving the database at epoch `at`,
    /// refreshing recency on a hit. An entry stamped **older** than `at`
    /// is stale — built before a delta the caller can already observe —
    /// and is dropped (counted as an invalidation plus a miss) instead of
    /// returned. An entry stamped newer is fine: representations advance
    /// monotonically and serving fresher data is always allowed.
    pub fn get(&self, key: &CatalogKey, at: Epoch) -> Option<Arc<CompressedView>> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let stale = {
            let inner = self.inner.read().expect("catalog lock poisoned");
            match inner.map.get(key) {
                Some(slot) if slot.epoch >= at => {
                    slot.last_used.fetch_max(tick, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(Arc::clone(&slot.view));
                }
                Some(_) => true,
                None => false,
            }
        };
        if stale {
            let mut inner = self.inner.write().expect("catalog lock poisoned");
            // Re-check under the exclusive lock: a maintainer may have
            // replaced the entry with a fresh one while we upgraded.
            match inner.map.get(key) {
                Some(slot) if slot.epoch >= at => {
                    slot.last_used.fetch_max(tick, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(Arc::clone(&slot.view));
                }
                Some(_) => {
                    inner.remove(key);
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                }
                None => {}
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a freshly built view stamped with the epoch of the database
    /// it was built from and the work its build counted, counting the
    /// build and evicting entries until the budget holds.
    pub fn insert(
        &self,
        key: CatalogKey,
        view: Arc<CompressedView>,
        epoch: Epoch,
        build_work: u64,
    ) {
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.insert_at(key, view, epoch, build_work);
    }

    /// Installs a delta-maintained view — counted as maintenance, not as a
    /// build, so zero-rebuild assertions over serving phases stay
    /// meaningful. The entry keeps its build's work count if it is still
    /// resident (maintenance does not re-price a rebuild).
    pub fn insert_maintained(&self, key: CatalogKey, view: Arc<CompressedView>, epoch: Epoch) {
        self.maintained.fetch_add(1, Ordering::Relaxed);
        let prior_build_work = self
            .inner
            .read()
            .expect("catalog lock poisoned")
            .map
            .get(&key)
            .map_or(0, |s| s.build_work);
        self.insert_at(key, view, epoch, prior_build_work);
    }

    fn insert_at(&self, key: CatalogKey, view: Arc<CompressedView>, epoch: Epoch, build_work: u64) {
        let bytes = std::mem::size_of::<CompressedView>() + view.heap_bytes();
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.inner.write().expect("catalog lock poisoned");
        // Never replace a fresher entry with an older build: a builder
        // racing a concurrent `update` may finish after the maintainer.
        if inner.map.get(&key).is_some_and(|s| s.epoch > epoch) {
            return;
        }
        if let Some(old) = inner.map.insert(
            key.clone(),
            Slot {
                view,
                bytes,
                epoch,
                build_work,
                last_used: AtomicU64::new(tick),
            },
        ) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += bytes;
        while inner.resident_bytes > self.budget_bytes && inner.map.len() > 1 {
            // Cost-aware victim selection: maximize bytes freed per unit
            // of counted rebuild work; among equals, evict the least
            // recently used.
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .max_by(|(_, a), (_, b)| {
                    a.evict_score().total_cmp(&b.evict_score()).then_with(|| {
                        b.last_used
                            .load(Ordering::Relaxed)
                            .cmp(&a.last_used.load(Ordering::Relaxed))
                    })
                })
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if inner.remove(&victim) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Advances an entry's epoch stamp without touching its contents —
    /// used when a delta provably does not affect the entry's view (none
    /// of the view's relations were touched). Stamps only move forward.
    /// Returns `true` when the entry exists.
    pub fn restamp(&self, key: &CatalogKey, epoch: Epoch) -> bool {
        let mut inner = self.inner.write().expect("catalog lock poisoned");
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.epoch = slot.epoch.max(epoch);
                true
            }
            None => false,
        }
    }

    /// Drops every entry stamped older than `at`, returning how many were
    /// removed. The lazy path in [`Catalog::get`] already guarantees stale
    /// entries are never served; this sweep additionally returns their
    /// memory ahead of the next lookup.
    pub fn invalidate_stale(&self, at: Epoch) -> usize {
        let mut inner = self.inner.write().expect("catalog lock poisoned");
        let stale: Vec<CatalogKey> = inner
            .map
            .iter()
            .filter(|(_, slot)| slot.epoch < at)
            .map(|(k, _)| k.clone())
            .collect();
        let mut dropped = 0;
        for key in &stale {
            if inner.remove(key) {
                dropped += 1;
            }
        }
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// The resident entry for `key`, with its epoch stamp — no recency
    /// update, no counter bumps (the maintenance and introspection path).
    pub fn peek(&self, key: &CatalogKey) -> Option<(Arc<CompressedView>, Epoch)> {
        self.peek_work(key).map(|(view, epoch, _)| (view, epoch))
    }

    /// [`Catalog::peek`], with the counted work of the build the entry came
    /// from (what eviction weighs its bytes against).
    pub fn peek_work(&self, key: &CatalogKey) -> Option<(Arc<CompressedView>, Epoch, u64)> {
        self.inner
            .read()
            .expect("catalog lock poisoned")
            .map
            .get(key)
            .map(|slot| (Arc::clone(&slot.view), slot.epoch, slot.build_work))
    }

    /// The build-serialization mutex for `key` (one per distinct key for
    /// the catalog's lifetime). Hold it while building after a miss and
    /// re-check [`Catalog::get`] once acquired.
    pub fn build_lock(&self, key: &CatalogKey) -> Arc<Mutex<()>> {
        let mut locks = self.build_locks.lock().expect("build-locks poisoned");
        Arc::clone(locks.entry(key.clone()).or_default())
    }

    /// Whether `key` is currently resident (no recency update, no counter
    /// bump — for tests and introspection).
    pub fn contains(&self, key: &CatalogKey) -> bool {
        self.inner
            .read()
            .expect("catalog lock poisoned")
            .map
            .contains_key(key)
    }

    /// Current counters.
    pub fn stats(&self) -> CatalogStats {
        let inner = self.inner.read().expect("catalog lock poisoned");
        CatalogStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            maintained: self.maintained.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: inner.map.len(),
            resident_bytes: inner.resident_bytes,
            budget_bytes: self.budget_bytes,
            ..CatalogStats::default()
        }
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Catalog")
            .field("entries", &s.entries)
            .field("resident_bytes", &s.resident_bytes)
            .field("budget_bytes", &s.budget_bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("builds", &s.builds)
            .field("maintained", &s.maintained)
            .field("evictions", &s.evictions)
            .field("invalidations", &s.invalidations)
            .finish()
    }
}
