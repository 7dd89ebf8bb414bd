//! The index store: every `(relation, column order)` [`SortedIndex`]
//! resident once, shared by everything built over that relation.
//!
//! The sorted base indexes are the `|D|` term of Theorem 1's space bound —
//! a property of the *database*, not of a view. One build touches the same
//! index from several places (the trie indexes of the join plan, the two
//! count indexes of the cost oracle, the veto oracle of auto strategy
//! selection), and views over the same relations touch the same indexes
//! again: τ-twins differ in nothing but their tree and dictionary. An
//! [`IndexPool`] is where all of them ask, so each distinct index is sorted
//! once and `Arc`-shared from then on. The engine owns one for its whole
//! lifetime (one per shard); a standalone build or maintenance call opens a
//! private one.
//!
//! **The relation's own order.** A [`Database`] stores each relation as its
//! identity-order index, so that order is never sorted or filed here: an
//! ask for it returns the stored relation's own `Arc` and counts as a hit,
//! and a delta reaches it through [`Database::apply`], not through a merge.
//!
//! **Key.** Entries are keyed by the relation's *allocation identity*
//! (`Arc::as_ptr`) plus the column order. Each entry holds a `Weak` of the
//! stored relation, which pins the address — no other relation can be
//! allocated there while the entry exists — without pinning the rows. This
//! makes sharing sound across database versions (copy-on-write gives a
//! touched relation a fresh allocation, hence fresh keys; untouched
//! relations keep theirs) and across the Example 3 rewrite (rewritten
//! databases share untouched relations by `Arc`; derived relations get
//! fresh allocations).
//!
//! **Lifetime.** The store keeps alive no index that nothing else holds
//! and no relation at all: entries hold the index weakly too, so an index
//! dies with its last view. The one exception is deliberate and bounded:
//! an index the store itself just sorted or merged is pinned until the
//! next [`IndexPool::release`], because a build asks in phases (selection's
//! veto oracle is dropped before the structure asks again) and a delta's
//! merged indexes exist before the views that will adopt them. A pool that
//! is never released — the private, build-scoped kind — therefore pins
//! everything it built for as long as it lives.
//!
//! **Updates.** Merging a delta into an index happens here and nowhere
//! else: [`IndexPool::refresh`] merges every live index of every touched
//! relation once and files the result under the post-delta allocation, and
//! [`IndexPool::maintained`] is how a view trades its pre-delta index for
//! the post-delta one (a hit after a refresh; a merge of the caller's own
//! index in a private pool).
//!
//! **Locking.** One mutex guards the map, taken per lookup or insert and
//! never held across a sort, a merge or another lock. Two racing builders
//! of one key may therefore both sort, but the second to finish adopts the
//! first's allocation and drops its own.

use crate::database::Database;
use crate::delta::Delta;
use crate::sorted_index::SortedIndex;
use cqc_common::error::{CqcError, Result};
use cqc_common::hash::FastMap;
use cqc_common::heap::HeapSize;
use cqc_common::value::Tuple;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Store key: relation allocation address + column order.
type PoolKey = (usize, Vec<usize>);

fn key_of(relation: &Arc<SortedIndex>, order: &[usize]) -> PoolKey {
    (Arc::as_ptr(relation) as usize, order.to_vec())
}

struct Entry {
    /// Held only to pin the key's address (not the rows).
    _relation: Weak<SortedIndex>,
    index: Weak<SortedIndex>,
}

#[derive(Default)]
struct Inner {
    entries: FastMap<PoolKey, Entry>,
    /// Indexes sorted or merged since the last release (see the module
    /// docs, "Lifetime").
    pinned: Vec<Arc<SortedIndex>>,
}

impl Inner {
    fn resident(&self, key: &PoolKey) -> Option<Arc<SortedIndex>> {
        self.entries.get(key).and_then(|e| e.index.upgrade())
    }

    /// Forgets entries whose index died with its last holder.
    fn prune(&mut self) {
        self.entries.retain(|_, e| e.index.strong_count() > 0);
    }
}

/// What an [`IndexPool`] holds and has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexPoolStats {
    /// Live index allocations.
    pub indexes: usize,
    /// Their heap bytes, each allocation once.
    pub bytes: usize,
    /// Lookups answered with a resident index, cumulative.
    pub hits: u64,
    /// Indexes sorted from a relation, cumulative.
    pub builds: u64,
    /// Indexes produced by merging a delta into a resident one, cumulative.
    pub merges: u64,
}

impl IndexPoolStats {
    /// The counters as `(name, value)` pairs, in field order: what a
    /// `Stats` reply carries.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        let IndexPoolStats {
            indexes,
            bytes,
            hits,
            builds,
            merges,
        } = *self;
        vec![
            ("indexes", indexes as u64),
            ("bytes", bytes as u64),
            ("hits", hits),
            ("builds", builds),
            ("merges", merges),
        ]
    }
}

/// A delta's genuine effect on one relation: the rows it adds and the rows
/// it deletes, filtered against a pre-delta index of that relation (every
/// order of one relation holds the same rows, so one filter serves all).
struct NetChange<'a> {
    fresh: Vec<&'a Tuple>,
    stale: Vec<&'a Tuple>,
}

impl<'a> NetChange<'a> {
    /// `None` when a delta tuple's arity mismatches the index.
    fn of(pre: &SortedIndex, delta: &'a Delta, name: &str) -> Option<NetChange<'a>> {
        Some(NetChange {
            fresh: match delta.tuples_for(name) {
                Some(tuples) => pre.fresh_from(tuples)?,
                None => Vec::new(),
            },
            stale: match delta.removes_for(name) {
                Some(tuples) => pre.stale_from(tuples)?,
                None => Vec::new(),
            },
        })
    }

    /// The post-delta successor of `pre`: one [`SortedIndex::splice`] of
    /// both sets, never a re-sort. [`Delta`] keeps its insert and remove
    /// sets disjoint, so one linear merge takes both.
    fn apply(&self, pre: &SortedIndex) -> SortedIndex {
        pre.splice(&self.fresh, &self.stale)
    }
}

/// The store of shared sorted indexes. See the module docs for the key,
/// the lifetime rule, the update path and the locking.
#[derive(Default)]
pub struct IndexPool {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    builds: AtomicU64,
    merges: AtomicU64,
}

impl IndexPool {
    /// An empty store.
    pub fn new() -> IndexPool {
        IndexPool::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("index store lock poisoned")
    }

    fn hit(&self, key: &PoolKey) -> Option<Arc<SortedIndex>> {
        let index = self.lock().resident(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(index)
    }

    /// Files a freshly sorted or merged `index` under `key` and pins it
    /// until the next release — unless a racing builder filed one first,
    /// in which case that allocation is returned and `index` is dropped.
    fn adopt(
        &self,
        key: PoolKey,
        relation: &Arc<SortedIndex>,
        index: Arc<SortedIndex>,
    ) -> Arc<SortedIndex> {
        let mut inner = self.lock();
        if let Some(resident) = inner.resident(&key) {
            return resident;
        }
        inner.prune();
        inner.entries.insert(
            key,
            Entry {
                _relation: Arc::downgrade(relation),
                index: Arc::downgrade(&index),
            },
        );
        inner.pinned.push(Arc::clone(&index));
        index
    }

    /// The shared index of relation `name` of `db` under `order`, sorted
    /// on first use — or, in the relation's own order, the stored relation
    /// itself.
    ///
    /// # Errors
    ///
    /// [`CqcError::Schema`] when the relation is missing.
    pub fn get_or_build(
        &self,
        db: &Database,
        name: &str,
        order: &[usize],
    ) -> Result<Arc<SortedIndex>> {
        let relation = require_arc(db, name)?;
        if order == relation.order() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(relation);
        }
        let key = key_of(&relation, order);
        if let Some(index) = self.hit(&key) {
            return Ok(index);
        }
        let index = Arc::new(SortedIndex::build(&relation, order));
        self.builds.fetch_add(1, Ordering::Relaxed);
        Ok(self.adopt(key, &relation, index))
    }

    /// The index of `name` in the post-delta database `db` that succeeds
    /// `old`, the caller's index of the same order over the pre-delta
    /// relation. In the relation's own order that is the stored relation;
    /// in any other, resident after a [`IndexPool::refresh`] (or another
    /// holder's call), or else `old` itself when the delta leaves the
    /// relation alone, or `old` with the delta merged in.
    ///
    /// Returns `Ok(None)` when no successor can be reconciled with the
    /// post-delta relation (arity or size disagreement) — the caller
    /// should fall back to [`IndexPool::get_or_build`].
    ///
    /// # Errors
    ///
    /// [`CqcError::Schema`] when the relation is missing.
    pub fn maintained(
        &self,
        db: &Database,
        name: &str,
        old: &Arc<SortedIndex>,
        delta: &Delta,
    ) -> Result<Option<Arc<SortedIndex>>> {
        let relation = require_arc(db, name)?;
        if old.order() == relation.order() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(relation));
        }
        let key = key_of(&relation, old.order());
        if let Some(index) = self.hit(&key) {
            return Ok(Some(index));
        }
        let index = if delta.touches(name) {
            let Some(change) = NetChange::of(old, delta, name) else {
                return Ok(None);
            };
            self.merges.fetch_add(1, Ordering::Relaxed);
            Arc::new(change.apply(old))
        } else {
            Arc::clone(old)
        };
        if index.len() != relation.len() {
            // The relation changed beyond this delta: a merge is unsound.
            return Ok(None);
        }
        Ok(Some(self.adopt(key, &relation, index)))
    }

    /// Carries the store across one applied delta: every live index of a
    /// relation the delta genuinely changed (`before` and `after` hold it
    /// under different allocations) is merged once and filed under the
    /// post-delta allocation, where maintained *and* rebuilt views of
    /// `after` find it. The relation's own order is `after`'s stored
    /// relation already and is not merged again. An index that cannot be reconciled is simply not
    /// carried over; the superseded entries die with the pre-delta views.
    pub fn refresh(&self, before: &Database, after: &Database, delta: &Delta) {
        for name in delta.relation_names() {
            let (Some(old), Some(new)) = (before.get_arc(name), after.get_arc(name)) else {
                continue;
            };
            if Arc::ptr_eq(&old, &new) {
                continue;
            }
            let address = Arc::as_ptr(&old) as usize;
            let live: Vec<Arc<SortedIndex>> = self
                .lock()
                .entries
                .iter()
                .filter(|(key, _)| key.0 == address)
                .filter_map(|(_, entry)| entry.index.upgrade())
                .collect();
            let Some(change) = NetChange::of(&old, delta, name) else {
                continue;
            };
            for index in &live {
                let merged = change.apply(index);
                if merged.len() == new.len() {
                    self.merges.fetch_add(1, Ordering::Relaxed);
                    self.adopt(key_of(&new, index.order()), &new, Arc::new(merged));
                }
            }
        }
    }

    /// Unpins what the store sorted or merged since the last release: from
    /// here on an index lives exactly as long as something outside the
    /// store holds it. The engine calls this when a registration, a miss
    /// build or an update is over.
    pub fn release(&self) {
        let mut inner = self.lock();
        inner.pinned.clear();
        inner.prune();
    }

    /// Live contents (each allocation once) and cumulative counters.
    pub fn stats(&self) -> IndexPoolStats {
        let live: Vec<Arc<SortedIndex>> = {
            let mut inner = self.lock();
            inner.prune();
            inner
                .entries
                .values()
                .filter_map(|e| e.index.upgrade())
                .collect()
        };
        IndexPoolStats {
            indexes: live.len(),
            bytes: live
                .iter()
                .map(|ix| ix.heap_bytes() + std::mem::size_of::<SortedIndex>())
                .sum(),
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for IndexPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("IndexPool").field(&self.stats()).finish()
    }
}

fn require_arc(db: &Database, name: &str) -> Result<Arc<SortedIndex>> {
    db.get_arc(name)
        .ok_or_else(|| CqcError::Schema(format!("relation `{name}` not found in database")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relation;

    fn db_of(relations: &[(&str, Vec<(u64, u64)>)]) -> Database {
        let mut db = Database::new();
        for (name, pairs) in relations {
            db.add(Relation::from_pairs(*name, pairs.clone())).unwrap();
        }
        db
    }

    #[test]
    fn same_relation_and_order_shares() {
        let db = db_of(&[("R", vec![(1, 2), (2, 3)])]);
        let pool = IndexPool::new();
        let a = pool.get_or_build(&db, "R", &[1, 0]).unwrap();
        let b = pool.get_or_build(&db, "R", &[1, 0]).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((pool.stats().builds, pool.stats().hits), (1, 1));
        // The relation's own order is the stored relation itself: a hit,
        // never a build, and never filed a second time.
        let own = pool.get_or_build(&db, "R", &[0, 1]).unwrap();
        assert!(Arc::ptr_eq(&own, &db.get_arc("R").unwrap()));
        assert!(!Arc::ptr_eq(&a, &own));
        assert_eq!((pool.stats().builds, pool.stats().hits), (1, 2));
        assert_eq!(pool.stats().indexes, 1);
    }

    #[test]
    fn distinct_relations_never_collide() {
        // Two same-shape relations under different allocations must get
        // distinct indexes even though name lookups go through one pool.
        let db = db_of(&[("R", vec![(1, 2)]), ("S", vec![(7, 8)])]);
        let pool = IndexPool::new();
        let r = pool.get_or_build(&db, "R", &[1, 0]).unwrap();
        let s = pool.get_or_build(&db, "S", &[1, 0]).unwrap();
        assert_eq!(r.value(0, 0), 2);
        assert_eq!(s.value(0, 0), 8);
        assert!(pool.get_or_build(&db, "T", &[0]).is_err());
    }

    #[test]
    fn pool_pins_relations_across_database_drop() {
        // What stays pinned is the dropped relation's *address* (by the
        // entry's `Weak`), not its rows: the entry outlives the database
        // it was built from while the index is held, and whatever
        // relation is allocated next must not be mistaken for the dropped
        // one, wherever the allocator puts it.
        let pool = IndexPool::new();
        let first = {
            let db = db_of(&[("R", vec![(5, 6)])]);
            pool.get_or_build(&db, "R", &[1, 0]).unwrap()
        };
        for _ in 0..8 {
            let db = db_of(&[("R", vec![(9, 9)])]);
            let second = pool.get_or_build(&db, "R", &[1, 0]).unwrap();
            assert_eq!(second.value(0, 0), 9);
        }
        assert_eq!(first.value(0, 0), 6);
    }

    #[test]
    fn an_index_lives_as_long_as_its_holders_once_released() {
        let db = db_of(&[("R", vec![(1, 2), (2, 3)]), ("S", vec![(3, 4)])]);
        let pool = IndexPool::new();
        let held = pool.get_or_build(&db, "R", &[1, 0]).unwrap();
        drop(pool.get_or_build(&db, "S", &[1, 0]).unwrap());
        // Pinned across the phases of one build…
        assert_eq!(pool.stats().indexes, 2);
        pool.get_or_build(&db, "S", &[1, 0]).unwrap();
        assert_eq!(pool.stats().builds, 2, "the second ask was a hit");
        // …and not beyond it.
        pool.release();
        assert_eq!(pool.stats().indexes, 1);
        assert!(Arc::ptr_eq(
            &held,
            &pool.get_or_build(&db, "R", &[1, 0]).unwrap()
        ));
        drop(held);
        let stats = pool.stats();
        assert_eq!((stats.indexes, stats.bytes), (0, 0));
    }

    fn mixed() -> Delta {
        let mut delta = Delta::new();
        delta.insert("R", vec![0, 9]);
        delta.insert("R", vec![1, 2]); // already present
        delta.remove("R", vec![2, 3]);
        delta.remove("R", vec![8, 8]); // already absent
        delta
    }

    #[test]
    fn refresh_merges_each_live_index_once_under_the_new_allocation() {
        let before = db_of(&[("R", vec![(1, 2), (2, 3), (3, 1)]), ("S", vec![(4, 4)])]);
        let pool = IndexPool::new();
        let r01 = pool.get_or_build(&before, "R", &[0, 1]).unwrap();
        let r10 = pool.get_or_build(&before, "R", &[1, 0]).unwrap();
        let s10 = pool.get_or_build(&before, "S", &[1, 0]).unwrap();
        let mut after = before.clone();
        after.apply(&mixed()).unwrap();

        pool.refresh(&before, &after, &mixed());
        assert_eq!(
            pool.stats().merges,
            1,
            "one merge per live order of R but its own, which the database spliced"
        );
        let builds = pool.stats().builds;
        for (order, old) in [([0, 1], &r01), ([1, 0], &r10)] {
            let merged = pool.get_or_build(&after, "R", &order).unwrap();
            assert!(!Arc::ptr_eq(&merged, old));
            assert_eq!(*merged, SortedIndex::build(after.get("R").unwrap(), &order));
            // A view trading its old index in gets the same allocation.
            let traded = pool.maintained(&after, "R", old, &mixed()).unwrap();
            assert!(Arc::ptr_eq(&merged, &traded.unwrap()));
        }
        // R's own order is the post-delta stored relation.
        assert!(Arc::ptr_eq(
            &pool.get_or_build(&after, "R", &[0, 1]).unwrap(),
            &after.get_arc("R").unwrap()
        ));
        // The untouched relation kept its allocation, key and index.
        assert!(Arc::ptr_eq(
            &s10,
            &pool
                .maintained(&after, "S", &s10, &mixed())
                .unwrap()
                .unwrap()
        ));
        assert_eq!(pool.stats().builds, builds, "nothing was re-sorted");
        assert_eq!(pool.stats().merges, 1, "nothing was merged twice");

        // Superseded indexes die with their holders.
        pool.release();
        drop((r01, r10));
        assert_eq!(pool.stats().indexes, 1, "only S's index is still held");
    }

    #[test]
    fn a_private_pool_merges_the_callers_index_instead_of_sorting() {
        let mut db = db_of(&[("R", vec![(1, 2), (2, 3), (3, 1)])]);
        let old = Arc::new(SortedIndex::build(db.get("R").unwrap(), &[1, 0]));
        db.apply(&mixed()).unwrap();
        let pool = IndexPool::new();
        let merged = pool.maintained(&db, "R", &old, &mixed()).unwrap().unwrap();
        assert_eq!(*merged, SortedIndex::build(db.get("R").unwrap(), &[1, 0]));
        let again = pool.maintained(&db, "R", &old, &mixed()).unwrap().unwrap();
        assert!(Arc::ptr_eq(&merged, &again), "second holder shares");
        let stats = pool.stats();
        assert_eq!((stats.builds, stats.merges, stats.hits), (0, 1, 1));

        // In the relation's own order the successor is the stored relation.
        let own = db.get_arc("R").unwrap();
        let traded = pool.maintained(&db, "R", &own, &mixed()).unwrap().unwrap();
        assert!(Arc::ptr_eq(&traded, &own));
        assert_eq!(pool.stats().merges, 1);

        // An index that is not the relation's pre-delta state is refused.
        let unrelated = db_of(&[("R", vec![(5, 5), (6, 6), (7, 7)])]);
        let stranger = Arc::new(SortedIndex::build(unrelated.get("R").unwrap(), &[1, 0]));
        assert!(IndexPool::new()
            .maintained(&db, "R", &stranger, &mixed())
            .unwrap()
            .is_none());
        assert!(pool.maintained(&db, "Nope", &old, &mixed()).is_err());
    }
}
