//! The [`Engine`]: register-once / serve-many over a versioned
//! [`Database`].
//!
//! Lifecycle: load relations (`&mut self`), then register adorned views and
//! serve access requests concurrently (`&self` — the engine is `Sync`).
//! Registered views are built through [`crate::policy::select`] and cached
//! in the [`Catalog`]; a request that hits the catalog performs **zero**
//! representation rebuilds, which is the whole point of the paper's
//! build-once/answer-many regime.
//!
//! The database is held as a copy-on-write snapshot (`RwLock<Arc<…>>`):
//! readers clone the `Arc` out and serve from a consistent epoch while
//! [`Engine::update`] installs the next version. Each update applies a
//! batched [`Delta`] — insertions and removals — bumps the epoch, and
//! reconciles the catalog:
//! entries whose views the delta cannot affect are restamped, entries
//! that can absorb the delta do so through [`cqc_core::maintain`], and
//! everything else is rebuilt (or left for lazy invalidation on the next
//! lookup). No decision reads a clock: the same delta history on the same
//! data reconciles the same way on any host. Requests therefore never
//! observe a representation older than the database snapshot they serve
//! from.

use crate::catalog::{Catalog, CatalogKey, CatalogStats};
use crate::policy::{select_pooled, Policy, Selection};
use crate::service::{ServiceStats, ViewRow};
use cqc_common::error::{CqcError, Result};
use cqc_common::metrics;
use cqc_common::value::Value;
use cqc_common::{FastMap, FastSet};
use cqc_core::maintain::{touched_tuples, MaintainOutcome};
use cqc_core::CompressedView;
use cqc_durable::DurableStore;
use cqc_query::parser::parse_adorned;
use cqc_query::AdornedView;
use cqc_storage::csv::{relation_from_csv, CsvOptions};
use cqc_storage::{Database, Delta, Epoch, IndexPool, Interner, Relation, RelationId, SortedIndex};
use std::io::BufRead;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Byte budget for the representation catalog (deterministic
    /// [`cqc_common::heap::HeapSize`] accounting).
    pub catalog_budget_bytes: usize,
}

/// Largest delta, as a fraction of `|D|`, that [`Engine::update`] will try
/// to absorb by maintenance instead of a rebuild. Above it the localized
/// repair no longer beats rebuilding — the cost model behind maintenance
/// assumes the delta is small relative to the structure.
const MAINTAIN_MAX_DELTA_FRACTION: f64 = 0.2;

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            // Generous enough that eviction only happens under real
            // pressure; tests shrink it to force the eviction path.
            catalog_budget_bytes: 256 * 1024 * 1024,
        }
    }
}

/// A view registered with the engine.
#[derive(Debug)]
pub struct RegisteredView {
    /// The name requests address the view by.
    pub name: String,
    /// The adorned view itself.
    pub view: AdornedView,
    /// The concrete strategy selection (strategy, tag, reason).
    pub selection: crate::policy::Selection,
    /// Catalog key (normalized query text + adornment + strategy tag).
    pub key: CatalogKey,
}

/// What one [`Engine::update`] call did to the catalog.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// The database epoch after the delta.
    pub epoch: Epoch,
    /// Tuples the delta queued (including duplicates that were no-ops).
    pub delta_tuples: usize,
    /// Resident entries absorbed by delta maintenance.
    pub maintained: usize,
    /// Resident entries rebuilt from scratch.
    pub rebuilt: usize,
    /// Resident entries the delta provably did not affect (epoch restamp).
    pub restamped: usize,
}

/// Cumulative [`Engine::update`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Deltas applied (calls that changed the database).
    pub deltas: u64,
    /// Catalog entries absorbed by delta maintenance, total.
    pub maintained: u64,
    /// Catalog entries rebuilt by updates, total.
    pub rebuilt: u64,
    /// Catalog entries restamped as unaffected, total.
    pub restamped: u64,
}

/// What recovery replayed when an engine was opened from its data
/// directory (see [`Engine::open`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// The epoch the engine rejoined at — exactly its pre-crash epoch.
    pub epoch: Epoch,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// Bytes of torn/corrupt WAL tail truncated away during recovery.
    pub truncated_bytes: u64,
}

impl UpdateStats {
    /// The counters as `(name, value)` pairs, in field order: what a
    /// `Stats` reply carries.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        let UpdateStats {
            deltas,
            maintained,
            rebuilt,
            restamped,
        } = *self;
        vec![
            ("deltas", deltas),
            ("maintained", maintained),
            ("rebuilt", rebuilt),
            ("restamped", restamped),
        ]
    }
}

impl RecoveryStats {
    /// The counters as `(name, value)` pairs, in field order: what a
    /// `Stats` reply carries.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        let RecoveryStats {
            epoch,
            replayed,
            truncated_bytes,
        } = *self;
        vec![
            ("epoch", epoch),
            ("replayed", replayed as u64),
            ("truncated_bytes", truncated_bytes),
        ]
    }
}

/// The serve-many front door over a database and a representation catalog.
pub struct Engine {
    db: RwLock<Arc<Database>>,
    interner: Interner,
    catalog: Catalog,
    /// The index store: the one place this engine's sorted base indexes
    /// are built or merged, shared by strategy selection and every view
    /// (`docs/ARCHITECTURE.md`, "Index store").
    indexes: IndexPool,
    views: RwLock<FastMap<String, Arc<RegisteredView>>>,
    /// Serializes writers: updates see a quiescent catalog-reconciliation
    /// phase while readers keep serving from their snapshots.
    ///
    /// Lock order: `update_lock` → a catalog key's build lock → the leaf
    /// locks (`db`, `views`, the catalog's map, the index store's map). A
    /// leaf lock is held for one lookup or insert and never while another
    /// lock is taken — the index store in particular is unlocked during
    /// every sort, merge and build — so no two of them can be acquired in
    /// opposite orders.
    update_lock: Mutex<()>,
    /// The attached durability layer, if any: every applied delta is
    /// WAL-logged and fsynced before its epoch is published (see
    /// [`Engine::open`] / [`Engine::attach_durable`]).
    durable: Option<DurableStore>,
    /// What recovery replayed, when this engine was opened from disk.
    recovery: Option<RecoveryStats>,
    upd_deltas: AtomicU64,
    upd_maintained: AtomicU64,
    upd_rebuilt: AtomicU64,
    upd_restamped: AtomicU64,
}

impl Engine {
    /// An engine over `db` with default configuration.
    pub fn new(db: Database) -> Engine {
        Engine::with_config(db, EngineConfig::default())
    }

    /// An engine over `db` with explicit tuning.
    pub fn with_config(db: Database, config: EngineConfig) -> Engine {
        Engine {
            db: RwLock::new(Arc::new(db)),
            interner: Interner::new(),
            catalog: Catalog::new(config.catalog_budget_bytes),
            indexes: IndexPool::default(),
            views: RwLock::new(FastMap::default()),
            update_lock: Mutex::new(()),
            durable: None,
            recovery: None,
            upd_deltas: AtomicU64::new(0),
            upd_maintained: AtomicU64::new(0),
            upd_rebuilt: AtomicU64::new(0),
            upd_restamped: AtomicU64::new(0),
        }
    }

    /// Warm start: recovers the engine from a durable data directory —
    /// newest valid snapshot loaded (its sorted runs adopted without a
    /// re-sort), WAL replayed on top, torn tail truncated — and keeps the
    /// directory attached so further updates stay durable. The recovered
    /// engine is at its exact pre-crash epoch ([`Engine::recovery_stats`]
    /// reports what replay did); views are not persisted and must be
    /// re-registered, which rebuilds their representations from the
    /// adopted relations.
    ///
    /// # Errors
    ///
    /// [`CqcError::Io`] when `dir` holds no durable state (use
    /// [`Engine::attach_durable`] to start a fresh directory) or when the
    /// manifest/snapshot fail their checksums.
    pub fn open(dir: impl AsRef<Path>) -> Result<Engine> {
        let recovered = DurableStore::open(dir.as_ref())?;
        let stats = RecoveryStats {
            epoch: recovered.db.epoch(),
            replayed: recovered.replayed,
            truncated_bytes: recovered.truncated_bytes,
        };
        let mut engine = Engine::new(recovered.db);
        engine.durable = Some(recovered.store);
        engine.recovery = Some(stats);
        Ok(engine)
    }

    /// Attaches a fresh durability layer at `dir` (load phase): the
    /// current database is checkpointed immediately — load-phase schema
    /// changes reach disk only through snapshots, the WAL carries deltas —
    /// and every subsequent [`Engine::update`] is logged and fsynced
    /// before its epoch is published.
    ///
    /// # Errors
    ///
    /// [`CqcError::Config`] when `dir` already holds durable state
    /// (recover it with [`Engine::open`] instead) or a layer is already
    /// attached; I/O failures from the initial checkpoint.
    pub fn attach_durable(&mut self, dir: impl AsRef<Path>) -> Result<()> {
        if self.durable.is_some() {
            return Err(CqcError::Config(
                "engine already has a data directory attached".into(),
            ));
        }
        let store = DurableStore::create(dir.as_ref())?;
        store.checkpoint(&self.db())?;
        self.durable = Some(store);
        Ok(())
    }

    /// What recovery replayed, when this engine came from [`Engine::open`].
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// Checkpoints the attached data directory: snapshots the current
    /// database (quiescing writers first, so the snapshot is exactly a
    /// published epoch) and compacts the WAL behind it. Call after bulk
    /// loads and periodically under sustained updates to bound both the
    /// log and recovery time.
    ///
    /// # Errors
    ///
    /// [`CqcError::Config`] when no durability layer is attached; I/O
    /// failures (the previous checkpoint remains in force).
    pub fn checkpoint(&self) -> Result<()> {
        let Some(store) = &self.durable else {
            return Err(CqcError::Config(
                "engine has no data directory attached; nothing to checkpoint".into(),
            ));
        };
        let _writer = self.update_lock.lock().expect("update lock poisoned");
        store.checkpoint(&self.db())
    }

    /// A consistent snapshot of the database. Cheap (`Arc` clone); the
    /// snapshot stays valid — and unchanged — however many updates land
    /// afterwards.
    pub fn db(&self) -> Arc<Database> {
        Arc::clone(&self.db.read().expect("db lock poisoned"))
    }

    /// The current database epoch.
    pub fn epoch(&self) -> Epoch {
        self.db().epoch()
    }

    /// The interner used by CSV loading and textual request values.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Adds an already-built relation (load phase).
    ///
    /// Routed through the versioning path: the epoch bump makes every
    /// cached representation stale, so a catalog entry built before this
    /// call is invalidated on its next lookup instead of being served
    /// against an outdated view of the database.
    ///
    /// # Errors
    ///
    /// Fails if a relation with the same name exists.
    pub fn add_relation(&mut self, relation: Relation) -> Result<RelationId> {
        let arc = self.db.get_mut().expect("db lock poisoned");
        Arc::make_mut(arc).add(relation)
    }

    /// Loads a relation from CSV through the engine's interner (load phase).
    ///
    /// # Errors
    ///
    /// Propagates CSV parse errors and duplicate relation names.
    pub fn load_csv(
        &mut self,
        name: &str,
        reader: impl BufRead,
        options: CsvOptions,
    ) -> Result<RelationId> {
        let rel = relation_from_csv(name, reader, &mut self.interner, options)?;
        self.add_relation(rel)
    }

    /// Applies a batched delta of insertions and removals and reconciles
    /// the catalog: the epoch is bumped, and every resident entry whose
    /// view's relations take at most a fixed fraction of `|D|` in touched
    /// tuples is handed to [`cqc_core::maintain`], which restamps it when
    /// the delta does not touch the view, absorbs the delta in place, or
    /// asks for a rebuild. Everything else is rebuilt eagerly. Concurrent
    /// readers keep serving their snapshots throughout; once this returns,
    /// every resident entry is valid for the new epoch.
    ///
    /// # Errors
    ///
    /// [`CqcError::Schema`] when the delta references a missing relation or
    /// mismatched arity (the database is untouched), and build errors from
    /// eager rebuilds (the affected entry is left stale and will be
    /// invalidated, never served).
    pub fn update(&self, delta: &Delta) -> Result<UpdateReport> {
        let _writer = self.update_lock.lock().expect("update lock poisoned");
        let old = self.db();
        let pre_epoch = old.epoch();
        let mut new_db = (*old).clone();
        let epoch = new_db.apply(delta)?;
        let mut report = UpdateReport {
            epoch,
            delta_tuples: delta.total_tuples(),
            ..UpdateReport::default()
        };
        if epoch == pre_epoch {
            // Nothing genuinely new (duplicates only): entries stay valid.
            return Ok(report);
        }
        // Durability barrier: the delta must be fsynced to the WAL before
        // any reader can observe the epoch it produced. A log failure
        // aborts the update entirely — nothing was published, so the
        // in-memory and on-disk histories still agree.
        if let Some(store) = &self.durable {
            store.log(epoch, delta)?;
        }
        let new_db = Arc::new(new_db);
        self.upd_deltas.fetch_add(1, Ordering::Relaxed);

        // Merge the delta into every live base index once, before any view
        // is reconciled: maintained and rebuilt entries alike then adopt
        // the same post-delta allocations from the store.
        self.indexes.refresh(&old, &new_db, delta);

        // Reconcile the catalog *before* publishing the new epoch: readers
        // keep hitting the old-epoch entries (still valid for the snapshot
        // they serve) instead of lazily invalidating entries this very
        // loop is about to maintain — fresher-stamped entries are already
        // legal to serve, so stamping ahead of the swap is safe. Reconcile
        // every entry even if one rebuild fails: a failed entry stays
        // stale after the swap (the lazy lookup path refuses it), but the
        // remaining views must still be restamped/maintained or they would
        // pay needless invalidations. The first error is reported at the
        // end — after the swap, since the delta itself has been applied.
        let mut first_error: Option<CqcError> = None;
        let mut seen: FastSet<CatalogKey> = FastSet::default();
        for rv in self.views() {
            if !seen.insert(rv.key.clone()) {
                continue; // aliases share one entry; reconcile it once
            }
            if let Err(e) = self.reconcile_entry(&rv, &new_db, delta, pre_epoch, epoch, &mut report)
            {
                first_error.get_or_insert(e);
            }
        }
        *self.db.write().expect("db lock poisoned") = new_db;
        self.indexes.release();
        self.upd_maintained
            .fetch_add(report.maintained as u64, Ordering::Relaxed);
        self.upd_rebuilt
            .fetch_add(report.rebuilt as u64, Ordering::Relaxed);
        self.upd_restamped
            .fetch_add(report.restamped as u64, Ordering::Relaxed);
        match first_error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Brings one catalog entry up to `epoch` (maintain / rebuild /
    /// restamp), under the key's build lock so concurrent miss-builders
    /// for the same key serialize with the maintainer.
    fn reconcile_entry(
        &self,
        rv: &RegisteredView,
        db: &Arc<Database>,
        delta: &Delta,
        pre_epoch: Epoch,
        epoch: Epoch,
        report: &mut UpdateReport,
    ) -> Result<()> {
        let lock = self.catalog.build_lock(&rv.key);
        let _guard = lock.lock().expect("build lock poisoned");
        let Some((cv, entry_epoch)) = self.catalog.peek(&rv.key) else {
            return Ok(()); // nothing resident: the next lookup builds fresh
        };
        if entry_epoch >= epoch {
            return Ok(()); // a racing builder already produced a fresh entry
        }
        // An entry that predates `pre_epoch` is stale beyond this delta
        // (e.g. a relation was added since it was built) and cannot absorb
        // just this delta. Only the tuples landing in *this view's*
        // relations count against the fraction — a delta that floods an
        // unrelated relation must not push other views off their maintain
        // path — and `maintain` alone decides whether the view is touched.
        let small = touched_tuples(rv.view.query(), delta) as f64
            <= MAINTAIN_MAX_DELTA_FRACTION * (db.size().max(1) as f64);
        if entry_epoch == pre_epoch && small {
            match cv.maintain_pooled(&rv.view, db, delta, &self.indexes)? {
                MaintainOutcome::Maintained { view, .. } => {
                    self.catalog
                        .insert_maintained(rv.key.clone(), Arc::from(view), epoch);
                    report.maintained += 1;
                    return Ok(());
                }
                MaintainOutcome::Unaffected => {
                    self.catalog.restamp(&rv.key, epoch);
                    report.restamped += 1;
                    return Ok(());
                }
                MaintainOutcome::NeedsRebuild { .. } => {}
            }
        }
        self.build_into_catalog(rv, db)?;
        report.rebuilt += 1;
        Ok(())
    }

    /// Builds `rv`'s representation from `db` through the index store and
    /// installs it stamped with `db`'s epoch, priced for eviction by its
    /// counted cost: the work the build did (trie seeks, count probes and
    /// dictionary lookups — thread-local counters, and a build runs on one
    /// thread) plus the rows of the view's relations, the `|D|` term of
    /// the paper's bound, which also prices the index sorts of a build that
    /// runs no join.
    fn build_into_catalog(
        &self,
        rv: &RegisteredView,
        db: &Database,
    ) -> Result<Arc<CompressedView>> {
        let before = metrics::snapshot();
        let cv = CompressedView::build_pooled(
            &rv.view,
            db,
            rv.selection.strategy.clone(),
            &self.indexes,
        )
        .map_err(|e| e.for_view(&rv.name, &rv.selection.tag))?;
        let work = metrics::snapshot().delta_since(&before).work();
        let rows: usize = rv
            .view
            .query()
            .atoms
            .iter()
            .filter_map(|a| db.get(&a.relation))
            .map(SortedIndex::len)
            .sum();
        let cv = Arc::new(cv);
        self.catalog.insert(
            rv.key.clone(),
            Arc::clone(&cv),
            db.epoch(),
            work + rows as u64,
        );
        Ok(cv)
    }

    /// Eagerly drops every catalog entry stamped older than the current
    /// epoch (the lazy lookup path already refuses to serve them); returns
    /// how many entries were reclaimed.
    pub fn invalidate_stale(&self) -> usize {
        self.catalog.invalidate_stale(self.epoch())
    }

    /// Cumulative update counters.
    pub fn update_stats(&self) -> UpdateStats {
        UpdateStats {
            deltas: self.upd_deltas.load(Ordering::Relaxed),
            maintained: self.upd_maintained.load(Ordering::Relaxed),
            rebuilt: self.upd_rebuilt.load(Ordering::Relaxed),
            restamped: self.upd_restamped.load(Ordering::Relaxed),
        }
    }

    /// The epoch stamp of a registered view's resident representation, if
    /// one is resident — serving guarantees this is never older than the
    /// snapshot a request was answered from.
    ///
    /// # Errors
    ///
    /// [`CqcError::UnknownView`] when not registered.
    pub fn representation_epoch(&self, view: &str) -> Result<Option<Epoch>> {
        let rv = self.view(view)?;
        Ok(self.catalog.peek(&rv.key).map(|(_, e)| e))
    }

    /// Registers an adorned view under `name`, resolving `policy` to a
    /// concrete strategy and building its representation into the catalog
    /// immediately (so the first request is already a cache hit).
    ///
    /// Selection and build both draw from the engine's index store: the
    /// veto cost oracle's sorted indexes are reused by the actual structure
    /// build instead of being re-sorted (the Example 3 rewrite shares
    /// untouched relations by `Arc`, which is what lets the store recognize
    /// them across the two phases), and every index another resident view
    /// already holds is shared with it.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names; build failures are tagged with the view
    /// name and strategy via [`CqcError::ViewBuild`].
    pub fn register(
        &self,
        name: &str,
        view: AdornedView,
        policy: Policy,
    ) -> Result<Arc<RegisteredView>> {
        let registered = select_pooled(&view, &self.db(), &policy, &self.indexes)
            .map_err(|e| e.for_view(name, "auto-selection"))
            .and_then(|selection| self.register_selected(name, view, selection));
        // The build releases the store's pins itself; a failed selection
        // or a catalog hit (an alias of a resident view) never reaches it.
        self.indexes.release();
        registered
    }

    /// Registers a view whose strategy selection has **already been
    /// solved** — the plan-once path: a sharded engine resolves the
    /// selection once against global statistics and hands the identical
    /// [`Selection`] to every shard, which then only builds its shard-local
    /// indexes and dictionaries.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::register`] (minus selection errors).
    pub fn register_selected(
        &self,
        name: &str,
        view: AdornedView,
        selection: Selection,
    ) -> Result<Arc<RegisteredView>> {
        let key = CatalogKey {
            normalized_query: view.query().normalized_text(),
            pattern: view.pattern(),
            strategy_tag: selection.tag.clone(),
        };
        let registered = Arc::new(RegisteredView {
            name: name.to_string(),
            view,
            selection,
            key,
        });
        {
            let mut views = self.views.write().expect("views lock poisoned");
            if views.contains_key(name) {
                return Err(CqcError::Config(format!(
                    "view `{name}` is already registered"
                )));
            }
            views.insert(name.to_string(), Arc::clone(&registered));
        }
        // Build eagerly; distinct names sharing a catalog key share the
        // build (the catalog hit skips it). A failed build must unregister
        // the name, or the caller could never retry with a fixed strategy.
        if let Err(e) = self.representation(&registered) {
            self.views
                .write()
                .expect("views lock poisoned")
                .remove(name);
            return Err(e);
        }
        Ok(registered)
    }

    /// Parses `query_text` + `pattern` and registers it (CLI front door).
    ///
    /// # Errors
    ///
    /// Propagates parse and registration failures.
    pub fn register_text(
        &self,
        name: &str,
        query_text: &str,
        pattern: &str,
        policy: Policy,
    ) -> Result<Arc<RegisteredView>> {
        let view = parse_adorned(query_text, pattern)?;
        self.register(name, view, policy)
    }

    /// Removes a registered view by name, returning whether it existed.
    /// Catalog entries keyed by the view's normalized query survive (they
    /// may be shared by aliases and will age out via the budget); only the
    /// name binding is dropped.
    pub fn unregister(&self, name: &str) -> bool {
        self.views
            .write()
            .expect("views lock poisoned")
            .remove(name)
            .is_some()
    }

    /// The registered view named `name`.
    ///
    /// # Errors
    ///
    /// [`CqcError::UnknownView`] when not registered.
    pub fn view(&self, name: &str) -> Result<Arc<RegisteredView>> {
        self.views
            .read()
            .expect("views lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| CqcError::UnknownView(name.to_string()))
    }

    /// All registered views, sorted by name.
    pub fn views(&self) -> Vec<Arc<RegisteredView>> {
        let mut v: Vec<_> = self
            .views
            .read()
            .expect("views lock poisoned")
            .values()
            .cloned()
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// The compressed representation for a registered view: catalog hit, or
    /// (re)build under the key's build lock on a miss (aliased names share
    /// the lock, so one key never builds twice concurrently).
    ///
    /// The lookup carries the epoch of the database snapshot being served:
    /// an entry stamped older — built before a delta this snapshot already
    /// reflects — is invalidated and rebuilt instead of served stale.
    ///
    /// A miss builds through the engine's index store — at registration,
    /// after an eviction and after an invalidation alike — and releases
    /// the store's pins once the entry is in the catalog.
    fn representation(&self, rv: &RegisteredView) -> Result<Arc<CompressedView>> {
        let db = self.db();
        if let Some(cv) = self.catalog.get(&rv.key, db.epoch()) {
            return Ok(cv);
        }
        let lock = self.catalog.build_lock(&rv.key);
        let _guard = lock.lock().expect("build lock poisoned");
        // Double-check: a concurrent miss may have built while we waited.
        if let Some(cv) = self.catalog.get(&rv.key, db.epoch()) {
            return Ok(cv);
        }
        let cv = self.build_into_catalog(rv, &db);
        self.indexes.release();
        cv
    }

    /// Runs `f` with the reusable enumerator for `view` — the stream
    /// primitive under [`crate::BlockService::serve_into`], for callers
    /// that own their output blocks (the sharded engine drives one
    /// enumerator per shard into per-request blocks it manages itself).
    /// Once the enumerator's scratch and the caller's blocks have warmed to
    /// their high-water marks, each `answer_into` performs **zero** heap
    /// allocations — the property the counting allocator gates in CI. The
    /// scoped-closure shape exists because the enumerator borrows the
    /// catalog's representation for the duration.
    ///
    /// **Snapshot semantics:** the representation is resolved once, so the
    /// whole stream answers from one consistent epoch. A concurrent
    /// [`Engine::update`] is *not* observed mid-stream (unlike `serve_into`,
    /// which revalidates per request) — finish the closure and re-enter to
    /// pick up a newer epoch.
    ///
    /// # Errors
    ///
    /// Unknown view, or a tagged rebuild failure.
    pub fn with_view_enumerator<R>(
        &self,
        view: &str,
        f: impl FnOnce(&mut cqc_core::Theorem2Iter<'_>) -> R,
    ) -> Result<R> {
        let rv = self.view(view)?;
        let cv = self.representation(&rv)?;
        let mut enumerator = cv.enumerator();
        Ok(f(&mut enumerator))
    }

    /// Catalog effectiveness counters, with the index store's contents
    /// (each live allocation once — `resident_bytes` counts an index once
    /// per holder) and cumulative counters beside them.
    pub fn catalog_stats(&self) -> CatalogStats {
        let store = self.indexes.stats();
        CatalogStats {
            index_store_indexes: store.indexes,
            index_store_bytes: store.bytes,
            index_store_hits: store.hits,
            index_store_builds: store.builds,
            index_store_merges: store.merges,
            ..self.catalog.stats()
        }
    }

    /// The "EXPLAIN" of a registered view: selection reasoning plus the
    /// built representation's self-description.
    ///
    /// # Errors
    ///
    /// Unknown view, or a tagged rebuild failure.
    pub fn explain(&self, view: &str) -> Result<String> {
        let rv = self.view(view)?;
        let cv = self.representation(&rv)?;
        Ok(format!(
            "view `{}` = {}\n  pattern:  {}\n  strategy: {} ({})\n  repr:     {}\n  indexes:  {}",
            rv.name,
            rv.view.query(),
            rv.view.pattern(),
            rv.selection.tag,
            rv.selection.reason,
            cv.describe(),
            self.describe_index_sharing(&rv, &cv)
        ))
    }

    /// The shared handles of the base-relation indexes a registered view's
    /// representation holds ([`cqc_core::Theorem2Structure::base_indexes`]): two views
    /// share an index exactly when both lists contain the same allocation.
    ///
    /// # Errors
    ///
    /// Unknown view, or a tagged rebuild failure.
    pub fn base_indexes(&self, view: &str) -> Result<Vec<Arc<cqc_storage::SortedIndex>>> {
        let rv = self.view(view)?;
        let cv = self.representation(&rv)?;
        Ok(cv.base_indexes().into_iter().cloned().collect())
    }

    /// How many distinct base indexes `cv` holds, how many of those some
    /// other resident view holds too, and how many such views there are.
    fn describe_index_sharing(&self, rv: &RegisteredView, cv: &CompressedView) -> String {
        let mine: FastSet<_> = cv.base_indexes().into_iter().map(Arc::as_ptr).collect();
        let mut shared = FastSet::default();
        let mut sharers = 0usize;
        let mut seen = FastSet::default(); // aliases share one entry
        for other in self.views() {
            if other.key == rv.key || !seen.insert(other.key.clone()) {
                continue;
            }
            let Some((theirs, _)) = self.catalog.peek(&other.key) else {
                continue;
            };
            let common: Vec<_> = theirs
                .base_indexes()
                .into_iter()
                .map(Arc::as_ptr)
                .filter(|index| mine.contains(index))
                .collect();
            sharers += usize::from(!common.is_empty());
            shared.extend(common);
        }
        format!(
            "{} base indexes, {} shared with {} other views",
            mine.len(),
            shared.len(),
            sharers
        )
    }

    /// The Theorem 1 structure statistics of a registered view — sizes and
    /// the deterministic build work counts [`Engine::explain`] prints — or
    /// `None` when the view is served by another strategy.
    ///
    /// # Errors
    ///
    /// Unknown view, or a tagged rebuild failure.
    pub fn theorem1_stats(&self, view: &str) -> Result<Option<cqc_core::Theorem1Stats>> {
        let rv = self.view(view)?;
        Ok(self.representation(&rv)?.theorem1().map(|s| s.stats()))
    }

    /// What this engine reports over `Stats`: its catalog, update, recovery
    /// and index-store counters and its epoch, each registered view's
    /// Theorem 1 or Theorem 2 statistics under `theorem1.<view>.` or
    /// `theorem2.<view>.`, and one catalog row per registered view, by
    /// name. Reads only what is resident: nothing is built.
    pub fn service_stats(&self) -> ServiceStats {
        let mut out = ServiceStats::default();
        out.extend("catalog", self.catalog.stats().pairs());
        out.extend("index_pool", self.indexes.stats().pairs());
        out.extend("update", self.update_stats().pairs());
        if let Some(r) = self.recovery {
            out.extend("recovery", r.pairs());
        }
        out.extend("engine", [("epoch", self.epoch())]);
        for rv in self.views() {
            let resident = self.catalog.peek_work(&rv.key);
            let mut row = ViewRow {
                name: rv.name.clone(),
                recipe: rv.selection.tag.clone(),
                ..ViewRow::default()
            };
            if let Some((cv, epoch, build_work)) = resident {
                let (tree, dict, rest) = cv.bytes_by_part();
                (row.tree_bytes, row.dict_bytes, row.base_bytes) =
                    (tree as u64, dict as u64, rest as u64);
                (row.build_work, row.epoch) = (build_work, Some(epoch));
                let (family, pairs) = cv.stats_pairs();
                out.extend(&format!("{family}.{}", rv.name), pairs);
            }
            out.views.push(row);
        }
        out
    }

    /// Resolves a textual request value: an interned string if the text was
    /// ever interned (CSV data), otherwise a numeric literal.
    ///
    /// Interned strings take precedence: on a workload mixing CSV relations
    /// with generated numeric relations, a numeric-looking token that also
    /// appears in a CSV resolves to its interned id, not the number. Keep
    /// CSV tokens non-numeric (or workloads unmixed) when both spaces are
    /// in play; [`Engine::display_value`] mirrors the same precedence.
    ///
    /// # Errors
    ///
    /// The text is neither interned nor numeric.
    pub fn resolve_value(&self, text: &str) -> Result<Value> {
        if let Some(v) = self.interner.get(text) {
            return Ok(v);
        }
        text.parse::<Value>().map_err(|_| {
            CqcError::InvalidAccess(format!(
                "value `{text}` is neither a loaded string nor a number"
            ))
        })
    }

    /// Renders a value for display: its interned string when available,
    /// else the number itself.
    pub fn display_value(&self, v: Value) -> String {
        self.interner
            .resolve(v)
            .map_or_else(|| v.to_string(), str::to_string)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let db = self.db();
        f.debug_struct("Engine")
            .field("relations", &db.num_relations())
            .field("|D|", &db.size())
            .field("epoch", &db.epoch())
            .field(
                "views",
                &self.views.read().expect("views lock poisoned").len(),
            )
            .field("catalog", &self.catalog)
            .finish()
    }
}
