//! The [`ShardedEngine`]: one engine spanning cores over hash-partitioned
//! relations.
//!
//! The paper's structures compose over disjoint sub-instances — a
//! compressed representation built per shard answers its shard's output
//! with the same delay guarantees, exactly as factorized/cover
//! representations decompose over disjoint sub-databases. A
//! [`ShardedEngine`] exploits that: a [`PartitionSpec`] hash-partitions
//! each relation's rows on the column of one shared **partition variable**
//! (relations that cannot carry it are replicated), producing `S` disjoint
//! sub-databases, each owned by a full [`Engine`] with its own
//! representation catalog and budget slice.
//!
//! * **Parallel build** — [`ShardedEngine::register`] builds the `S`
//!   per-shard representations concurrently under `std::thread::scope`;
//!   each shard's build is over `~|D|/S` rows.
//! * **Multicore serve** — [`ShardedEngine::serve_blocks_into`] fans a
//!   request list out across shards; every shard pushes into its own flat
//!   [`AnswerBlock`] (the PR 3 sink machinery, still zero allocations per
//!   answer per shard once warm), and [`crate::BlockService::serve_into`] runs a
//!   final `k`-way [`cqc_common::BlockMerger`] over one request's blocks
//!   to restore the paper's lexicographic enumeration order.
//! * **Per-shard epochs** — a [`Delta`] splits into per-shard deltas that
//!   touch only the shards owning their rows; untouched shards keep their
//!   epoch, so their catalog entries stay valid independently. The global
//!   database version is [`ShardedEngine::version`], the vector of shard
//!   epochs (extending the PR 2 versioning).
//!
//! **Correctness.** Every answer valuation ν assigns the partition variable
//! one value, and all hash-partitioned relations store their ν-matching
//! rows in the single shard `hash(ν(v)) % S` (replicated relations are
//! everywhere), so ν is witnessed in exactly one shard: the per-shard
//! answer sets are disjoint and their union is the full answer set. A view
//! none of whose relations are hash-partitioned would be answered in full
//! by *every* shard; such views are routed to shard 0 alone instead.

use crate::engine::{Engine, EngineConfig, RecoveryStats, UpdateReport};
use crate::policy::{select, Policy};
use cqc_common::error::{CqcError, Result};
use cqc_common::value::Value;
use cqc_common::{AnswerBlock, FastMap};
use cqc_durable::DurableStore;
use cqc_query::parser::parse_adorned;
use cqc_query::{AdornedView, Var};
use cqc_storage::{Database, Delta, Epoch, PartitionSpec, Partitioning, Relation, ShardAssignment};
use std::path::Path;
use std::sync::{Arc, RwLock};

/// The subdirectory of a sharded data directory holding shard `s`'s
/// durable state (zero-padded so directory listings sort by shard).
fn shard_dir(dir: &Path, s: usize) -> std::path::PathBuf {
    dir.join(format!("shard-{s:03}"))
}

/// Tuning for a [`ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedEngineConfig {
    /// Number of shards (≥ 1). Each shard runs on its own OS thread during
    /// parallel build and fan-out serving.
    pub shards: usize,
    /// Per-engine tuning; the catalog budget is divided evenly across
    /// shards (each shard's catalog gets a `1/S` slice).
    pub engine: EngineConfig,
}

impl Default for ShardedEngineConfig {
    fn default() -> ShardedEngineConfig {
        ShardedEngineConfig {
            shards: std::thread::available_parallelism().map_or(4, usize::from),
            engine: EngineConfig::default(),
        }
    }
}

/// Scratch for shard-major block serving: `blocks[shard][request]`, reused
/// across calls so the steady state allocates nothing per answer.
#[derive(Debug, Default)]
pub struct ShardedBlocks {
    blocks: Vec<Vec<AnswerBlock>>,
}

impl ShardedBlocks {
    /// Empty scratch; capacity grows to the high-water mark of use.
    pub fn new() -> ShardedBlocks {
        ShardedBlocks::default()
    }

    /// The per-shard blocks of request `i` (one block per shard).
    pub fn request_blocks(&self, i: usize) -> impl Iterator<Item = &AnswerBlock> + '_ {
        self.blocks.iter().map(move |shard| &shard[i])
    }

    /// Total answers across all shards and requests.
    pub fn total_answers(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|shard| shard.iter().map(AnswerBlock::len))
            .sum()
    }

    fn ensure_shape(&mut self, shards: usize, requests: usize) {
        self.blocks.resize_with(shards, Vec::new);
        for shard in &mut self.blocks {
            shard.resize_with(requests, AnswerBlock::new);
            for b in shard.iter_mut() {
                b.reset(); // keep capacity, unlock arity for a new view
            }
        }
    }
}

/// What one [`ShardedEngine::update`] did, per shard and in aggregate.
#[derive(Debug, Clone, Default)]
pub struct ShardedUpdateReport {
    /// The post-delta epoch vector (the global database version).
    pub epochs: Vec<Epoch>,
    /// Shards whose sub-delta was non-empty (the only ones doing work).
    pub shards_touched: usize,
    /// Aggregate catalog reconciliation counts across touched shards.
    pub maintained: usize,
    /// Entries rebuilt across touched shards.
    pub rebuilt: usize,
    /// Entries restamped across touched shards.
    pub restamped: usize,
}

/// A register-once / serve-many engine whose database is hash-partitioned
/// across `S` single-core [`Engine`]s. See the module docs for the
/// partitioning invariant and the serve/merge pipeline.
pub struct ShardedEngine {
    partitioning: Partitioning,
    engines: Vec<Engine>,
    /// `true` → the view fans out to every shard; `false` → all of its
    /// relations are replicated and shard 0 alone serves it.
    fanout: RwLock<FastMap<String, bool>>,
    /// The unsplit database, kept as the **planning snapshot**: strategy
    /// selection runs once against global statistics (exactly what an
    /// unsharded engine would see) and the resolved plan ships to every
    /// shard. Replicated relations share their `Arc`s with the shards, so
    /// the extra footprint is only the hash-partitioned relations' rows.
    /// [`ShardedEngine::update`] applies each delta here too
    /// (copy-on-write), keeping planning statistics current.
    planning: RwLock<Arc<Database>>,
}

impl ShardedEngine {
    /// Partitions `db` under `spec` and builds one engine per shard. The
    /// catalog budget of `config.engine` is divided evenly across shards.
    ///
    /// # Errors
    ///
    /// Invalid shard counts and out-of-range hash columns.
    pub fn new(
        db: Database,
        spec: PartitionSpec,
        config: ShardedEngineConfig,
    ) -> Result<ShardedEngine> {
        let shards = config.shards.max(1);
        let partitioning = Partitioning::new(spec, shards)?;
        let sub_dbs = partitioning.split_database(&db)?;
        let mut engine_config = config.engine;
        engine_config.catalog_budget_bytes = (engine_config.catalog_budget_bytes / shards).max(1);
        let engines = sub_dbs
            .into_iter()
            .map(|d| Engine::with_config(d, engine_config))
            .collect();
        Ok(ShardedEngine {
            partitioning,
            engines,
            fanout: RwLock::new(FastMap::default()),
            planning: RwLock::new(Arc::new(db)),
        })
    }

    /// [`ShardedEngine::new`] with the spec derived from `view` by
    /// [`spec_for_view`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ShardedEngine::new`].
    pub fn for_view(
        db: Database,
        view: &AdornedView,
        config: ShardedEngineConfig,
    ) -> Result<ShardedEngine> {
        let spec = spec_for_view(view, &db);
        ShardedEngine::new(db, spec, config)
    }

    /// Warm start: recovers a sharded engine from a durable data directory
    /// written by [`ShardedEngine::attach_durable`] /
    /// [`ShardedEngine::checkpoint`]. Each shard lives in its own
    /// `shard-<s>` subdirectory and recovers independently (snapshot plus
    /// WAL replay), so the engine rejoins at its exact pre-crash epoch
    /// *vector* — shards that were ahead stay ahead. The planning snapshot
    /// is rebuilt by merging the recovered shards (hash-partitioned rows
    /// union disjointly; replicated copies dedup back to one), and `spec`
    /// must be the same partition spec the directory was written under —
    /// the spec itself is not persisted, exactly as view definitions are
    /// not: the serving script re-supplies both.
    ///
    /// # Errors
    ///
    /// [`CqcError::Io`] when `dir` holds no shard state, plus every
    /// per-shard [`Engine::open`] failure mode.
    pub fn open(
        dir: impl AsRef<Path>,
        spec: PartitionSpec,
        config: ShardedEngineConfig,
    ) -> Result<ShardedEngine> {
        let dir = dir.as_ref();
        let mut shards = 0;
        while DurableStore::exists(&shard_dir(dir, shards)) {
            shards += 1;
        }
        if shards == 0 {
            return Err(CqcError::Io(format!(
                "{}: no shard-* durable state to recover",
                dir.display()
            )));
        }
        let partitioning = Partitioning::new(spec, shards)?;
        let mut engine_config = config.engine;
        engine_config.catalog_budget_bytes = (engine_config.catalog_budget_bytes / shards).max(1);
        let engines: Vec<Engine> = (0..shards)
            .map(|s| Engine::open_with_config(shard_dir(dir, s), engine_config))
            .collect::<Result<Vec<_>>>()?;
        // Rebuild the planning snapshot from the recovered shards. Every
        // shard holds every relation (hashed ones hold their partition,
        // replicated ones a full copy), so concatenating per relation and
        // letting `from_flat` sort-dedup reconstructs the global database.
        let dbs: Vec<Arc<Database>> = engines.iter().map(Engine::db).collect();
        let mut planning = Database::new();
        if let Some(first) = dbs.first() {
            for rel in first.relations() {
                let mut flat = Vec::new();
                for db in &dbs {
                    let shard_rel = db.get(rel.name()).ok_or_else(|| {
                        CqcError::Io(format!(
                            "{}: relation `{}` missing from a recovered shard",
                            dir.display(),
                            rel.name()
                        ))
                    })?;
                    for row in shard_rel.iter() {
                        flat.extend_from_slice(row);
                    }
                }
                planning.add(Relation::from_flat(
                    rel.name().to_string(),
                    rel.arity(),
                    flat,
                ))?;
            }
        }
        planning.restore_epoch(engines.iter().map(Engine::epoch).max().unwrap_or(0));
        Ok(ShardedEngine {
            partitioning,
            engines,
            fanout: RwLock::new(FastMap::default()),
            planning: RwLock::new(Arc::new(planning)),
        })
    }

    /// Attaches a fresh durability layer: each shard gets its own
    /// `shard-<s>` subdirectory of `dir` (created, checkpointed with the
    /// shard's current sub-database, and logged to independently from then
    /// on). Recover with [`ShardedEngine::open`] under the same spec.
    ///
    /// # Errors
    ///
    /// Per-shard [`Engine::attach_durable`] failure modes; a failure
    /// partway leaves earlier shards attached (the directory should be
    /// discarded and the call retried fresh).
    pub fn attach_durable(&mut self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        for (s, engine) in self.engines.iter_mut().enumerate() {
            engine.attach_durable(shard_dir(dir, s))?;
        }
        Ok(())
    }

    /// Checkpoints every shard's data directory (snapshot + WAL
    /// compaction). Shards checkpoint sequentially; each one quiesces only
    /// its own writers.
    ///
    /// # Errors
    ///
    /// [`CqcError::Config`] when no durability layer is attached; the
    /// first per-shard I/O failure (earlier shards keep their new
    /// checkpoints — every manifest on disk stays individually consistent).
    pub fn checkpoint(&self) -> Result<()> {
        for engine in &self.engines {
            engine.checkpoint()?;
        }
        Ok(())
    }

    /// Per-shard recovery statistics, when this engine came from
    /// [`ShardedEngine::open`] (`None` for a fresh engine).
    pub fn recovery_stats(&self) -> Option<Vec<RecoveryStats>> {
        self.engines.iter().map(Engine::recovery_stats).collect()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// The engine owning shard `s` (introspection and tests).
    pub fn shard(&self, s: usize) -> &Engine {
        &self.engines[s]
    }

    /// The partitioning in force.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The global database version: the vector of shard epochs. A delta
    /// advances exactly the components of the shards owning its rows.
    pub fn version(&self) -> Vec<Epoch> {
        self.engines.iter().map(Engine::epoch).collect()
    }

    /// The planning snapshot: the unsplit database strategy selection runs
    /// against.
    pub fn planning_db(&self) -> Arc<Database> {
        Arc::clone(&self.planning.read().expect("planning lock poisoned"))
    }

    /// Registers an adorned view on every shard, building the `S`
    /// per-shard representations **in parallel** under
    /// `std::thread::scope`. Views whose relations are all replicated are
    /// registered on shard 0 only (every shard would otherwise enumerate
    /// the full answer set — see the module docs).
    ///
    /// Strategy selection is **solved exactly once**, against the planning
    /// snapshot (global statistics — the same data an unsharded engine
    /// would consult), and the resolved plan — concrete LP cover and τ, or
    /// explicit decomposition and δ assignment — ships to all `S` shards.
    /// Each shard then only builds its shard-local indexes and
    /// dictionaries; the LP cover, width search and τ calibration are
    /// never re-run per shard.
    ///
    /// # Errors
    ///
    /// [`CqcError::Config`] when the view cannot be served under the
    /// engine's partitioning (a hash-partitioned relation's hash column is
    /// not pinned to one shared variable by the view); selection failures;
    /// any shard's build failure (all shards are rolled back).
    pub fn register(&self, name: &str, view: AdornedView, policy: Policy) -> Result<()> {
        // Fail duplicates before paying for the selection solve (a racing
        // register slipping past this pre-check is still caught by the
        // name reservation below).
        if self
            .fanout
            .read()
            .expect("fanout lock poisoned")
            .contains_key(name)
        {
            return Err(CqcError::Config(format!(
                "view `{name}` is already registered"
            )));
        }
        // `select` sorts the veto oracle's indexes in a throwaway pool on
        // purpose: a persistent store over the unsplit planning snapshot
        // would pin a second full-|D| set of indexes no shard serves from.
        let selection = select(&view, &self.planning_db(), &policy)
            .map_err(|e| e.for_view(name, "auto-selection"))?;
        let fans_out = routing_for(self.partitioning.spec(), &view)?;
        {
            // Reserve the name first: a duplicate must fail *here*, before
            // any shard is touched — otherwise the rollback below would
            // tear an existing, working registration out of every shard.
            let mut fanout = self.fanout.write().expect("fanout lock poisoned");
            if fanout.contains_key(name) {
                return Err(CqcError::Config(format!(
                    "view `{name}` is already registered"
                )));
            }
            fanout.insert(name.to_string(), fans_out);
        }
        let result: Result<()> = if fans_out {
            let outcomes: Vec<Result<()>> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .engines
                    .iter()
                    .map(|engine| {
                        let (view, selection) = (view.clone(), selection.clone());
                        scope.spawn(move || {
                            engine.register_selected(name, view, selection).map(|_| ())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard register panicked"))
                    .collect()
            });
            outcomes.into_iter().collect()
        } else {
            self.engines[0]
                .register_selected(name, view, selection)
                .map(|_| ())
        };
        if let Err(e) = result {
            for engine in &self.engines {
                engine.unregister(name);
            }
            self.fanout
                .write()
                .expect("fanout lock poisoned")
                .remove(name);
            return Err(e);
        }
        Ok(())
    }

    /// Parses and registers (CLI front door), mirroring
    /// [`Engine::register_text`].
    ///
    /// # Errors
    ///
    /// Parse failures plus the [`ShardedEngine::register`] failure modes.
    pub fn register_text(
        &self,
        name: &str,
        query_text: &str,
        pattern: &str,
        policy: Policy,
    ) -> Result<()> {
        let view = parse_adorned(query_text, pattern)?;
        self.register(name, view, policy)
    }

    /// Whether `name` is registered, and if so whether it fans out.
    fn routing(&self, name: &str) -> Result<bool> {
        self.fanout
            .read()
            .expect("fanout lock poisoned")
            .get(name)
            .copied()
            .ok_or_else(|| CqcError::UnknownView(name.to_string()))
    }

    /// Shard-major block serving into reusable scratch — the one per-shard
    /// serve fan-out, under [`crate::BlockService::serve_into`] and the shard
    /// benchmark alike. Every shard thread resolves its representation
    /// once, then drives its reusable enumerator into
    /// `out.blocks[shard][request]`; once the scratch has warmed to its
    /// high-water mark a repeat call performs **zero** heap allocations per
    /// answer on every shard. Returns the total answer count.
    ///
    /// # Errors
    ///
    /// Unknown view, bound-arity mismatch, or a tagged rebuild failure.
    pub fn serve_blocks_into(
        &self,
        view: &str,
        bounds: &[Vec<Value>],
        out: &mut ShardedBlocks,
    ) -> Result<usize> {
        let fans_out = self.routing(view)?;
        out.ensure_shape(self.engines.len(), bounds.len());
        let outcomes: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .engines
                .iter()
                .zip(out.blocks.iter_mut())
                .enumerate()
                .map(|(si, (engine, blocks))| {
                    scope.spawn(move || -> Result<()> {
                        if !fans_out && si != 0 {
                            return Ok(()); // blocks already reset
                        }
                        engine.with_view_enumerator(view, |enumerator| {
                            for (b, block) in bounds.iter().zip(blocks.iter_mut()) {
                                enumerator.answer_into(b, block)?;
                            }
                            Ok(())
                        })?
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard serve panicked"))
                .collect()
        });
        outcomes.into_iter().collect::<Result<()>>()?;
        Ok(out.total_answers())
    }

    /// `true` iff the request has at least one answer. Probes shards
    /// sequentially with first-answer short-circuiting — existence needs
    /// one witness, not a fan-out.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ShardedEngine::serve_blocks_into`].
    pub fn exists(&self, view: &str, bound: &[Value]) -> Result<bool> {
        let fans_out = self.routing(view)?;
        let shards = if fans_out { self.engines.len() } else { 1 };
        for engine in &self.engines[..shards] {
            if engine.exists(view, bound)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Applies a batched delta: the delta splits into per-shard deltas that
    /// touch only the shards owning their rows, and the touched shards
    /// update **in parallel** (each reconciling its own catalog —
    /// maintain/rebuild/restamp — before publishing its shard epoch).
    /// Untouched shards keep epoch and catalog untouched, which is the
    /// point of per-shard versioning.
    ///
    /// # Errors
    ///
    /// Routing failures (out-of-range hash column) before anything is
    /// applied; the first shard error afterwards (other shards still
    /// complete their updates).
    pub fn update(&self, delta: &Delta) -> Result<ShardedUpdateReport> {
        let split = self.partitioning.split_delta(delta)?;
        {
            // Keep the planning snapshot current so later registrations
            // select against fresh statistics. Copy-on-write: only the
            // relations the delta touches are cloned. A schema error here
            // aborts before any shard is touched (shards would hit the
            // same validation).
            let mut planning = self.planning.write().expect("planning lock poisoned");
            let mut next = (**planning).clone();
            next.apply(delta)?;
            *planning = Arc::new(next);
        }
        let outcomes: Vec<Option<Result<UpdateReport>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .engines
                .iter()
                .zip(&split)
                .map(|(engine, d)| scope.spawn(move || (!d.is_empty()).then(|| engine.update(d))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard update panicked"))
                .collect()
        });
        let mut report = ShardedUpdateReport::default();
        let mut first_error = None;
        for outcome in outcomes {
            let Some(outcome) = outcome else { continue };
            report.shards_touched += 1;
            match outcome {
                Ok(r) => {
                    report.maintained += r.maintained;
                    report.rebuilt += r.rebuilt;
                    report.restamped += r.restamped;
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        report.epochs = self.version();
        match first_error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Aggregate catalog counters across all shards.
    pub fn catalog_stats(&self) -> crate::catalog::CatalogStats {
        let mut total = crate::catalog::CatalogStats::default();
        for engine in &self.engines {
            let s = engine.catalog_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.builds += s.builds;
            total.maintained += s.maintained;
            total.evictions += s.evictions;
            total.invalidations += s.invalidations;
            total.admission_rejected += s.admission_rejected;
            total.entries += s.entries;
            total.resident_bytes += s.resident_bytes;
            total.budget_bytes += s.budget_bytes;
            total.index_store_indexes += s.index_store_indexes;
            total.index_store_bytes += s.index_store_bytes;
            total.index_store_hits += s.index_store_hits;
            total.index_store_builds += s.index_store_builds;
            total.index_store_merges += s.index_store_merges;
        }
        total
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.engines.len())
            .field("version", &self.version())
            .field("hashed_relations", &self.partitioning.spec().num_hashed())
            .finish()
    }
}

/// Derives the partitioning for `view`: every head variable is scored by
/// the number of tuples that would have to be **replicated** — the rows of
/// relations that cannot be hash-partitioned on that variable (an atom
/// missing the variable, a non-natural atom, or two atoms over one
/// relation pinning the variable to different columns). The variable with
/// the least replication wins; bound-head variables win ties (requests then
/// route their work to the owning shard, the ISSUE's bound-prefix
/// preference), then head order. A view that admits no partitioning at all
/// yields the all-replicate spec, which the engine serves from shard 0.
pub fn spec_for_view(view: &AdornedView, db: &Database) -> PartitionSpec {
    let query = view.query();
    // Candidates in preference order: bound head variables first.
    let mut candidates: Vec<Var> = view.bound_head();
    candidates.extend(view.free_head());

    let mut best: Option<(usize, PartitionSpec)> = None; // (replicated tuples, spec)
    for &v in &candidates {
        // relation → Some(col) when partitionable on v, None when forced
        // to replicate: an atom must be natural and contain v, and every
        // atom over the relation must pin v to the same column.
        let mut assignment: FastMap<&str, Option<usize>> = FastMap::default();
        for atom in &query.atoms {
            let pinned = if atom.is_natural() {
                atom.position_of(v)
            } else {
                None
            };
            assignment
                .entry(atom.relation.as_str())
                .and_modify(|slot| {
                    if *slot != pinned {
                        *slot = None; // inconsistent across atoms → replicate
                    }
                })
                .or_insert(pinned);
        }
        if assignment.values().all(Option::is_none) {
            continue; // v partitions nothing
        }
        let replicated: usize = assignment
            .iter()
            .filter(|(_, col)| col.is_none())
            .map(|(name, _)| db.get(name).map_or(0, |r| r.len()))
            .sum();
        // Candidates are iterated in preference order (bound variables
        // first), so a strict improvement is the only way to displace the
        // incumbent — ties keep the earlier, more-preferred variable.
        let better = best.as_ref().map_or(true, |(r, _)| replicated < *r);
        if better {
            let mut spec = PartitionSpec::new();
            for (name, col) in &assignment {
                spec = match col {
                    Some(c) => spec.hash(name, *c),
                    None => spec.replicate(name),
                };
            }
            best = Some((replicated, spec));
        }
    }
    best.map_or_else(PartitionSpec::new, |(_, spec)| spec)
}

/// Validates `view` against `spec` and decides its routing: `Ok(true)` when
/// the view fans out across shards (at least one of its relations is
/// hash-partitioned, with every hash column pinned to one shared variable
/// by the view — the condition that makes per-shard answers disjoint and
/// complete), `Ok(false)` when all of its relations are replicated (shard 0
/// serves it alone).
///
/// # Errors
///
/// [`CqcError::Config`] when a hash-partitioned relation is used in a way
/// that breaks the invariant: a non-natural atom over it, a hash column out
/// of range, or two hashed atoms disagreeing on the partition variable.
pub fn view_fans_out(spec: &PartitionSpec, view: &AdornedView) -> Result<bool> {
    routing_for(spec, view)
}

fn routing_for(spec: &PartitionSpec, view: &AdornedView) -> Result<bool> {
    let mut partition_var: Option<Var> = None;
    for atom in &view.query().atoms {
        let ShardAssignment::Hash(col) = spec.assignment(&atom.relation) else {
            continue;
        };
        if !atom.is_natural() {
            return Err(CqcError::Config(format!(
                "view cannot be served sharded: relation `{}` is hash-partitioned but \
                 `{atom}` is not a natural-join atom",
                atom.relation
            )));
        }
        let Some(cqc_query::atom::Term::Var(v)) = atom.terms.get(col) else {
            return Err(CqcError::Config(format!(
                "view cannot be served sharded: relation `{}` hashes on column {col}, \
                 which is out of range for `{atom}`",
                atom.relation
            )));
        };
        match partition_var {
            None => partition_var = Some(*v),
            Some(p) if p == *v => {}
            Some(p) => {
                return Err(CqcError::Config(format!(
                    "view cannot be served sharded: hash columns disagree on the \
                     partition variable ({} vs {} in `{atom}`)",
                    view.query().var_name(p),
                    view.query().var_name(*v),
                )));
            }
        }
    }
    Ok(partition_var.is_some())
}
