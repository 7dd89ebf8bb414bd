//! The [`ShardedEngine`]: partition, fan out, merge.
//!
//! The paper's structures compose over disjoint sub-instances — a
//! compressed representation built per shard answers its shard's output
//! with the same delay guarantees, exactly as factorized/cover
//! representations decompose over disjoint sub-databases. So a shard is
//! just an [`Engine`] over its slice, and a [`ShardedEngine`] adds only
//! what one engine lacks:
//!
//! * **Partition** — [`ShardedEngine::new`] (or [`ShardedEngine::for_view`],
//!   spec from [`spec_for_view`]) hash-partitions each relation's rows on
//!   the column of one shared **partition variable** under a
//!   [`PartitionSpec`] (relations that cannot carry it are replicated),
//!   producing `S` disjoint sub-databases, each owned by a full [`Engine`]
//!   with its own catalog and budget slice ([`ShardedEngine::shard`]).
//! * **Plan once, build in parallel** — [`ShardedEngine::register`] solves
//!   strategy selection once against the unsplit planning snapshot
//!   ([`ShardedEngine::planning_db`]) and builds the `S` per-shard
//!   representations concurrently through [`crate::service::fan_out`].
//! * **Route** — each registered view keeps its [`Route`]. A request whose
//!   bound values fix the partition variable has every answer on the one
//!   shard that value hashes to, and a view none of whose relations is
//!   hash-partitioned has every answer on shard 0; such a request goes to
//!   that shard alone.
//! * **Fan out and merge** — every other request goes to every shard:
//!   [`ShardedEngine::serve_blocks_into`] fans a request list out across
//!   the shards it reaches, each pushing into its own flat [`AnswerBlock`]
//!   (zero allocations per answer per shard once warm), and
//!   [`crate::BlockService::serve_into`] runs a final `k`-way
//!   [`cqc_common::BlockMerger`] over one request's blocks to restore the
//!   paper's lexicographic enumeration order. A routed request skips the
//!   blocks and the merge: its shard streams straight into the sink.
//! * **Route deltas** — [`ShardedEngine::update`] splits a [`Delta`] into
//!   per-shard deltas that touch only the shards owning their rows;
//!   untouched shards keep their epoch, so the database version is the
//!   vector of shard epochs ([`ShardedEngine::version`]).
//!
//! Every fan-out runs its first shard on the calling thread (shard 0 when
//! it reaches all), and a routed request runs entirely there; see
//! [`ShardedEngine`] for what that means for the thread-local work
//! counters of [`cqc_common::metrics`].
//!
//! Everything else — catalog and update statistics, `explain`, durability
//! — is per shard, through [`ShardedEngine::shard`]. A durable sharded
//! deployment is one `cqe serve --shard=i/n --data-dir=…` per shard, each
//! an [`Engine`] with its own data directory (`docs/DURABILITY.md`).
//!
//! **Correctness.** Every answer valuation ν assigns the partition variable
//! one value, and all hash-partitioned relations store their ν-matching
//! rows in the single shard `hash(ν(v)) % S` (replicated relations are
//! everywhere), so ν is witnessed in exactly one shard: the per-shard
//! answer sets are disjoint and their union is the full answer set. A view
//! none of whose relations are hash-partitioned would be answered in full
//! by *every* shard; such views are routed to shard 0 alone instead. A
//! bound value ν(v) of the partition variable is stored only in shard
//! `hash(ν(v)) % S`, so the other shards hold no answer for that request.

use crate::engine::{Engine, EngineConfig};
use crate::policy::{select, Policy};
use crate::service::fan_out;
use cqc_common::error::{CqcError, Result};
use cqc_common::value::Value;
use cqc_common::{AnswerBlock, FastMap};
use cqc_query::{AdornedView, Var};
use cqc_storage::{
    shard_of_value, Database, Delta, Epoch, PartitionSpec, Partitioning, ShardAssignment,
};
use std::sync::{Arc, RwLock};

/// Tuning for a [`ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedEngineConfig {
    /// Number of shards (≥ 1). A build, update or serve that reaches
    /// several shards runs the first on the calling thread and each other
    /// one on its own OS thread.
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

/// A register-once / serve-many engine whose database is hash-partitioned
/// across `S` single-core [`Engine`]s. See the module docs for the
/// partitioning invariant, the routing rule and the serve/merge pipeline.
///
/// The work counters and build phases of [`cqc_common::metrics`] are
/// thread-local. A call that reaches several shards runs the first of
/// them (shard 0 when it reaches all) on the calling thread, and a routed
/// request runs its one shard there, so those shards' counters accrue to
/// the caller; the others' accrue to threads the caller never sees.
pub struct ShardedEngine {
    partitioning: Partitioning,
    engines: Vec<Engine>,
    /// Which shards hold each registered view's answers.
    routes: RwLock<FastMap<String, Route>>,
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
            routes: RwLock::new(FastMap::default()),
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

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// The engine owning shard `s`: its catalog and update statistics,
    /// `explain` and base indexes are that shard's.
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
    /// per-shard representations **in parallel** ([`fan_out`]: shard 0 on
    /// the calling thread). Views whose relations are all replicated are
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
            .routes
            .read()
            .expect("routes lock poisoned")
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
        let route = Route::for_view(self.partitioning.spec(), &view)?;
        {
            // Reserve the name first: a duplicate must fail *here*, before
            // any shard is touched — otherwise the rollback below would
            // tear an existing, working registration out of every shard.
            let mut routes = self.routes.write().expect("routes lock poisoned");
            if routes.contains_key(name) {
                return Err(CqcError::Config(format!(
                    "view `{name}` is already registered"
                )));
            }
            routes.insert(name.to_string(), route);
        }
        let builders = if route.fans_out() {
            &self.engines[..]
        } else {
            &self.engines[..1]
        };
        let result: Result<()> = fan_out(builders, |engine| {
            engine
                .register_selected(name, view.clone(), selection.clone())
                .map(|_| ())
        })
        .into_iter()
        .collect();
        if let Err(e) = result {
            for engine in &self.engines {
                engine.unregister(name);
            }
            self.routes
                .write()
                .expect("routes lock poisoned")
                .remove(name);
            return Err(e);
        }
        Ok(())
    }

    /// The route of registered view `name`.
    pub(crate) fn route(&self, name: &str) -> Result<Route> {
        self.routes
            .read()
            .expect("routes lock poisoned")
            .get(name)
            .copied()
            .ok_or_else(|| CqcError::UnknownView(name.to_string()))
    }

    /// Shard-major block serving into reusable scratch — the one per-shard
    /// serve fan-out, under [`crate::BlockService::serve_into`] and the shard
    /// benchmark alike. Each request goes only to the shards its
    /// [`Route`] reaches (the blocks of the others stay empty), and only
    /// shards some request reaches run. Every such shard resolves its
    /// representation once, then drives its reusable enumerator into
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
        let route = self.route(view)?;
        let shards = self.engines.len();
        out.ensure_shape(shards, bounds.len());
        let serving = self
            .engines
            .iter()
            .zip(out.blocks.iter_mut())
            .enumerate()
            .filter(|(s, _)| bounds.iter().any(|b| route.reaches(b, shards, *s)));
        fan_out(serving, |(s, (engine, blocks))| -> Result<()> {
            engine.with_view_enumerator(view, |enumerator| {
                for (b, block) in bounds.iter().zip(blocks.iter_mut()) {
                    if route.reaches(b, shards, s) {
                        enumerator.answer_into(b, block)?;
                    }
                }
                Ok(())
            })?
        })
        .into_iter()
        .collect::<Result<()>>()?;
        Ok(out.total_answers())
    }

    /// Applies a batched delta: the delta splits into per-shard deltas that
    /// touch only the shards owning their rows, and the touched shards
    /// update **in parallel** ([`fan_out`]; each reconciling its own catalog —
    /// maintain/rebuild/restamp — before publishing its shard epoch).
    /// Untouched shards keep epoch and catalog untouched, which is the
    /// point of per-shard versioning. Returns the post-delta epoch vector
    /// ([`ShardedEngine::version`]); what each shard's catalog did is that
    /// shard's [`Engine::update_stats`].
    ///
    /// # Errors
    ///
    /// Routing failures (out-of-range hash column) before anything is
    /// applied; the first shard error afterwards (other shards still
    /// complete their updates).
    pub fn update(&self, delta: &Delta) -> Result<Vec<Epoch>> {
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
        let touched = self
            .engines
            .iter()
            .zip(&split)
            .filter(|(_, d)| !d.is_empty());
        // Every shard has finished before the first error is reported.
        fan_out(touched, |(engine, d)| engine.update(d).map(|_| ()))
            .into_iter()
            .collect::<Result<()>>()?;
        Ok(self.version())
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

/// Which shards hold a registered view's answers to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// None of the view's relations is hash-partitioned, so every shard
    /// would answer in full: shard 0 alone registers and serves it.
    ShardZero,
    /// The partition variable is free: every shard holds some answers.
    Every,
    /// The partition variable is bound value `position` of `arity`: the
    /// shard that value hashes to holds every answer.
    Owner {
        /// Index of the partition variable among the bound values.
        position: usize,
        /// The view's number of bound values.
        arity: usize,
    },
}

impl Route {
    /// Validates `view` against `spec` and decides its route: a view
    /// fans out when at least one of its relations is hash-partitioned,
    /// with every hash column pinned to one shared variable by the view —
    /// the condition that makes per-shard answers disjoint and complete.
    ///
    /// # Errors
    ///
    /// [`CqcError::Config`] when a hash-partitioned relation is used in a
    /// way that breaks the invariant: a non-natural atom over it, a hash
    /// column out of range, or two hashed atoms disagreeing on the
    /// partition variable.
    pub fn for_view(spec: &PartitionSpec, view: &AdornedView) -> Result<Route> {
        let Some(v) = routing_for(spec, view)? else {
            return Ok(Route::ShardZero);
        };
        let bound = view.bound_head();
        Ok(match bound.iter().position(|&b| b == v) {
            Some(position) => Route::Owner {
                position,
                arity: bound.len(),
            },
            None => Route::Every,
        })
    }

    /// Whether registration builds the view on every shard (`false`:
    /// shard 0 alone).
    pub fn fans_out(&self) -> bool {
        *self != Route::ShardZero
    }

    /// The one shard of `shards` that holds every answer to `bound`, or
    /// `None` when every shard holds some (a single shard holds all). The
    /// partition value is read only from a bound list of the view's arity;
    /// any other length goes to every shard, which answer it with the
    /// typed arity error.
    pub fn shard_for(&self, bound: &[Value], shards: usize) -> Option<usize> {
        match *self {
            _ if shards == 1 => Some(0),
            Route::ShardZero => Some(0),
            Route::Every => None,
            Route::Owner { position, arity } => {
                (bound.len() == arity).then(|| shard_of_value(bound[position], shards))
            }
        }
    }

    /// Whether a request for `bound` goes to `shard` of `shards`.
    pub fn reaches(&self, bound: &[Value], shards: usize, shard: usize) -> bool {
        self.shard_for(bound, shards).map_or(true, |s| s == shard)
    }
}

/// The variable every hash-partitioned relation of `view` hashes on, or
/// `None` when all of its relations are replicated.
fn routing_for(spec: &PartitionSpec, view: &AdornedView) -> Result<Option<Var>> {
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
    Ok(partition_var)
}
