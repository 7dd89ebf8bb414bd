//! The front-door router: N shard *replica groups* behind one
//! [`BlockService`].
//!
//! The router is the network mirror of [`cqc_engine::ShardedEngine`]: the
//! same [`cqc_storage::PartitionSpec`] decides which relations are
//! hash-partitioned and which replicate, the same [`cqc_engine::Route`]
//! decides which replica groups a request reads (the one group owning
//! its bound partition value, shard 0 alone for a view of replicated
//! relations, or every group), the same [`cqc_engine::fan_out`] runs the
//! first of them on the calling thread, and the same
//! [`cqc_common::BlockMerger`] restores the exact global lexicographic
//! order from the per-shard streams. What the network adds:
//!
//! * **replica groups** — every shard is fronted by a
//!   [`ReplicaGroup`] of R independent servers; registration fans out to
//!   all replicas, serves pick one healthy replica per shard and fail
//!   over on faults under the group's [`RetryPolicy`] (budgeted
//!   attempts, capped jittered backoff, per-request deadline accounting,
//!   optional hedged reads, per-replica circuit breakers);
//! * **health-checked connections** — [`Router::connect_replicated`]
//!   probes every replica of every shard before the router is usable and
//!   reports *every* unreachable address in one error (one look tells an
//!   operator the full extent of an outage); [`Router::health_check`]
//!   re-probes on demand and tolerates dead replicas as long as each
//!   shard keeps at least one;
//! * **per-request epoch consistency, per replica** — every serve reply
//!   carries the epoch vector the replica observed; a reply that
//!   disagrees with the group's expectation marks that *replica* stale
//!   (it is skipped, another is tried) instead of poisoning the request,
//!   and only if no replica serves at the expected version does a typed
//!   [`code::EPOCH_MISMATCH`] surface;
//! * **typed partial failure and graceful degradation** — in the default
//!   [`ServeMode::Strict`] a shard whose whole replica group is down
//!   fails the request with [`code::SHARD_FAILED`] naming the shard;
//!   opting into [`ServeMode::DegradedOk`] (through [`Router::serve`]'s
//!   [`ServeOpts`]) returns the surviving shards' merged answers instead,
//!   with an explicit per-shard [`Coverage`] bitmap and a typed
//!   [`code::DEGRADED`] indication — a partial result can never
//!   impersonate a complete one.
//!
//! Updates split per shard with [`cqc_storage::Partitioning::split_delta`]
//! and fan out to every replica of each touched shard, preconditioned on
//! the router's last-known epoch vector so a retried delta after an
//! ambiguous I/O failure can never double-apply (see
//! [`ReplicaGroup::update_preconditioned`]). A replica that misses an
//! update becomes stale and is skipped by the per-replica epoch check
//! until it is re-synced — degraded redundancy, never wrong answers.

use cqc_common::error::Result;
use cqc_common::frame::{code, ServePriority};
use cqc_common::{AnswerBlock, AnswerSink, BlockMerger, Coverage, CqcError, FastMap, Value};
use cqc_engine::{fan_out, BlockService, Route};
use cqc_query::parser::parse_adorned;
use cqc_storage::{Delta, Epoch, PartitionSpec, Partitioning};
use std::sync::{Arc, RwLock};

use crate::breaker::{BreakerConfig, BreakerTransitions};
use crate::client::ClientConfig;
use crate::protocol::RegisterReq;
use crate::replica::{Deadline, GroupStats, ReplicaGroup, RetryPolicy};

/// How a fan-out serve treats a shard with no serving replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Fail the whole request (exact answers or a typed error).
    #[default]
    Strict,
    /// Answer from the shards that survive, with an explicit coverage
    /// bitmap and a typed [`code::DEGRADED`] indication on the report.
    DegradedOk,
}

/// How [`Router::serve`] runs one request; the default is what
/// [`BlockService::serve_into`] uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOpts {
    /// What a shard with no serving replica does to the request.
    pub mode: ServeMode,
    /// The priority class every shard server admits the request under.
    pub priority: ServePriority,
    /// The caller's deadline; `None` falls back to the router's
    /// [`RetryPolicy::request_deadline`].
    pub deadline: Option<Deadline>,
}

/// The outcome of one fan-out serve: what was merged, which shards
/// contributed, and what failed.
#[derive(Debug)]
pub struct ServeReport {
    /// Answers merged into the sink.
    pub answers: usize,
    /// Which shards' streams are in the merge (full ⇔ exact).
    pub coverage: Coverage,
    /// Per-shard failures (empty when `coverage.is_full()`).
    pub failures: Vec<(usize, CqcError)>,
}

impl ServeReport {
    /// `true` when the result is partial (some shard did not contribute).
    pub fn is_degraded(&self) -> bool {
        !self.coverage.is_full()
    }

    /// The typed [`code::DEGRADED`] error describing this partial result
    /// (`None` when the result is exact) — what a strict caller would
    /// have seen, and what a degraded-tolerant caller logs.
    pub fn degraded_error(&self) -> Option<CqcError> {
        if !self.is_degraded() {
            return None;
        }
        Some(CqcError::Protocol {
            code: code::DEGRADED,
            detail: format!(
                "partial result: coverage {} (missing shards {:?})",
                self.coverage,
                self.coverage.missing()
            ),
        })
    }
}

/// Fleet-wide fault counters: the sum of every group's [`GroupStats`]
/// and breaker transitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetStats {
    /// Summed per-group serve/update fault counters.
    pub groups: GroupStats,
    /// Summed per-replica breaker transitions.
    pub breakers: BreakerTransitions,
}

/// The fan-out/merge router over a fleet of shard replica groups.
#[derive(Debug)]
pub struct Router {
    groups: Vec<Arc<ReplicaGroup>>,
    partitioning: Partitioning,
    policy: RetryPolicy,
    /// view name → which shards hold its answers.
    routes: RwLock<FastMap<String, Route>>,
    /// Last known epoch vector per shard — the consistency expectation
    /// every serve reply is checked against.
    expected: RwLock<Vec<Vec<Epoch>>>,
}

impl Router {
    /// Connects to `addrs` under `spec` (one shard per address, in shard
    /// order — the spec's hash assignment must match how the fleet's
    /// sub-databases were split) and health-checks every shard. The
    /// unreplicated (R = 1) special case of
    /// [`Router::connect_replicated`].
    ///
    /// # Errors
    ///
    /// Partitioning validation failures, and one error naming *every*
    /// unreachable address — the router refuses to start over a
    /// partially reachable fleet.
    pub fn connect(addrs: &[String], spec: PartitionSpec, config: ClientConfig) -> Result<Router> {
        let groups: Vec<Vec<String>> = addrs.iter().map(|a| vec![a.clone()]).collect();
        Router::connect_replicated(
            &groups,
            spec,
            config,
            BreakerConfig::default(),
            RetryPolicy::default(),
        )
    }

    /// Connects to a replicated fleet: `groups[s]` lists shard `s`'s
    /// replica addresses (primary first). Probes every replica of every
    /// shard up front; *all* unreachable addresses are reported in one
    /// error, so a multi-shard outage is discovered in one connect
    /// attempt rather than serially.
    ///
    /// # Errors
    ///
    /// Partitioning validation failures, empty groups, and failed health
    /// probes (all of them, in one [`CqcError::Io`]).
    pub fn connect_replicated(
        groups: &[Vec<String>],
        spec: PartitionSpec,
        config: ClientConfig,
        breaker: BreakerConfig,
        policy: RetryPolicy,
    ) -> Result<Router> {
        if groups.is_empty() {
            return Err(CqcError::Config(
                "a router needs at least one shard address".into(),
            ));
        }
        if let Some(i) = groups.iter().position(Vec::is_empty) {
            return Err(CqcError::Config(format!(
                "shard {i} has no replica addresses"
            )));
        }
        let partitioning = Partitioning::new(spec, groups.len())?;
        let built: Vec<Arc<ReplicaGroup>> = groups
            .iter()
            .enumerate()
            .map(|(s, addrs)| Arc::new(ReplicaGroup::new(s, addrs, config, breaker, policy)))
            .collect();
        // Probe the whole fleet before reporting anything: the point is
        // one error that names every unreachable replica.
        let mut expected = Vec::with_capacity(built.len());
        let mut unreachable: Vec<String> = Vec::new();
        for group in &built {
            let mut vector: Option<Vec<Epoch>> = None;
            for (addr, outcome) in group.probe() {
                match outcome {
                    Ok(epochs) => vector = Some(max_vector(vector.take(), epochs)),
                    Err(e) => {
                        unreachable.push(format!("shard {} ({addr}): {e}", group.shard()));
                    }
                }
            }
            expected.push(vector.unwrap_or_default());
        }
        if !unreachable.is_empty() {
            return Err(CqcError::Io(format!(
                "{} unreachable replica(s): {}",
                unreachable.len(),
                unreachable.join("; ")
            )));
        }
        Ok(Router {
            groups: built,
            partitioning,
            policy,
            routes: RwLock::new(FastMap::default()),
            expected: RwLock::new(expected),
        })
    }

    /// Number of shards fronted.
    pub fn num_shards(&self) -> usize {
        self.groups.len()
    }

    /// The primary (first-replica) address per shard, in shard order.
    pub fn addrs(&self) -> Vec<String> {
        self.groups.iter().map(|g| g.addrs().remove(0)).collect()
    }

    /// Every replica address, `groups[s][r]` layout.
    pub fn replica_addrs(&self) -> Vec<Vec<String>> {
        self.groups.iter().map(|g| g.addrs()).collect()
    }

    /// The partitioning in force.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The shard replica groups, in shard order.
    pub fn groups(&self) -> &[Arc<ReplicaGroup>] {
        &self.groups
    }

    /// Fleet-wide fault counters (summed over groups and replicas).
    pub fn fleet_stats(&self) -> FleetStats {
        let mut stats = FleetStats::default();
        for g in &self.groups {
            let s = g.stats();
            stats.groups.failovers += s.failovers;
            stats.groups.stale_skips += s.stale_skips;
            stats.groups.prefix_resumes += s.prefix_resumes;
            stats.groups.hedges += s.hedges;
            stats.groups.hedge_wins += s.hedge_wins;
            stats.groups.update_failures += s.update_failures;
            stats.groups.budget_spent += s.budget_spent;
            stats.groups.budget_denied += s.budget_denied;
            let t = g.breaker_transitions();
            stats.breakers.opened += t.opened;
            stats.breakers.half_opened += t.half_opened;
            stats.breakers.closed += t.closed;
        }
        stats
    }

    /// Probes every replica and refreshes the expected epoch vectors
    /// (the recovery path after an out-of-band write raised
    /// [`code::EPOCH_MISMATCH`], and the rejoin path after a replica
    /// revives). A shard's expectation becomes the elementwise max over
    /// its reachable replicas — lagging replicas stay stale and skipped.
    /// Returns the per-shard vectors.
    ///
    /// # Errors
    ///
    /// [`code::SHARD_FAILED`] only when a shard has *no* reachable
    /// replica, naming every dead address of that shard.
    pub fn health_check(&self) -> Result<Vec<Vec<Epoch>>> {
        let mut fresh = Vec::with_capacity(self.groups.len());
        for group in &self.groups {
            let mut vector: Option<Vec<Epoch>> = None;
            let mut dead: Vec<String> = Vec::new();
            for (addr, outcome) in group.probe() {
                match outcome {
                    Ok(epochs) => vector = Some(max_vector(vector.take(), epochs)),
                    Err(e) => dead.push(format!("{addr}: {e}")),
                }
            }
            match vector {
                Some(v) => fresh.push(v),
                None => {
                    return Err(CqcError::Protocol {
                        code: code::SHARD_FAILED,
                        detail: format!(
                            "shard {} has no reachable replica ({})",
                            group.shard(),
                            dead.join("; ")
                        ),
                    });
                }
            }
        }
        *self.expected.write().expect("expected lock poisoned") = fresh.clone();
        Ok(fresh)
    }

    /// Cumulative wire traffic across all replica connections:
    /// `(bytes received, bytes sent)`.
    pub fn wire_bytes(&self) -> (u64, u64) {
        let mut totals = (0u64, 0u64);
        for g in &self.groups {
            let (r, w) = g.wire_bytes();
            totals.0 += r;
            totals.1 += w;
        }
        totals
    }

    fn route(&self, view: &str) -> Result<Route> {
        self.routes
            .read()
            .expect("routes lock poisoned")
            .get(view)
            .copied()
            .ok_or_else(|| CqcError::UnknownView(view.to_string()))
    }

    /// Serves one request across the fleet: shard-major fan-out with
    /// per-shard replica failover, epoch check per reply, k-way merge into
    /// `sink` in exact lexicographic order (early stop respected). Only the
    /// groups the view's [`Route`] reaches for `bound` are asked; the
    /// others hold no answer and count as covered. The
    /// *remaining* deadline budget and the priority class travel on the
    /// wire with every per-shard attempt, failover, and hedge, so each
    /// shard server can shed doomed or low-priority work before
    /// enumerating.
    ///
    /// In [`ServeMode::DegradedOk`] an asked shard whose replica group
    /// cannot serve is *dropped from the merge* instead of failing the
    /// request (a routed request degrades only when its owner fails):
    /// the report's coverage bitmap says exactly which shards
    /// contributed, [`ServeReport::degraded_error`] carries the typed
    /// [`code::DEGRADED`] indication, and the merged stream is still in
    /// exact lexicographic order over the covered shards.
    ///
    /// # Errors
    ///
    /// Unknown view always. In strict mode also any shard failure:
    /// [`code::EPOCH_MISMATCH`] when no replica of a shard serves at the
    /// expected version, [`code::SHARD_FAILED`] (or the shard's own typed
    /// error) when a whole replica group is down, and [`code::DEADLINE`]
    /// when the request budget runs out. In degraded mode shard failures
    /// land in the report.
    pub fn serve(
        &self,
        view: &str,
        bound: &[Value],
        mut sink: &mut dyn AnswerSink,
        opts: &ServeOpts,
    ) -> Result<ServeReport> {
        let route = self.route(view)?;
        let shards = self.groups.len();
        let expected = self
            .expected
            .read()
            .expect("expected lock poisoned")
            .clone();
        let deadline = opts
            .deadline
            .unwrap_or_else(|| Deadline::within(self.policy.request_deadline));
        let mut coverage = Coverage::empty(shards);
        for i in (0..shards).filter(|&i| !route.reaches(bound, shards, i)) {
            coverage.mark(i);
        }
        // Shard-major fan-out: each asked group (failover and all) serves
        // into a local block.
        let asked = (0..shards).filter(|&i| route.reaches(bound, shards, i));
        let results = fan_out(asked, |i| {
            let mut block = AnswerBlock::new();
            let served = self.groups[i].serve(
                view,
                bound,
                &expected[i],
                opts.priority,
                deadline,
                &mut block,
            );
            (i, served.map(|_| block).map_err(|e| shard_error(i, e)))
        });
        let mut failures = Vec::new();
        let mut blocks = Vec::with_capacity(results.len());
        for (i, r) in results {
            match r {
                Ok(block) => {
                    coverage.mark(i);
                    blocks.push(block);
                }
                Err(e) => match opts.mode {
                    ServeMode::Strict => return Err(e),
                    ServeMode::DegradedOk => failures.push((i, e)),
                },
            }
        }
        let refs: Vec<&AnswerBlock> = blocks.iter().collect();
        let answers = BlockMerger::new().merge_into(&refs, &mut sink);
        Ok(ServeReport {
            answers,
            coverage,
            failures,
        })
    }
}

/// Elementwise max of two epoch vectors (the freshest state any replica
/// of a shard has reached); adopts the longer vector on length skew.
fn max_vector(a: Option<Vec<Epoch>>, b: Vec<Epoch>) -> Vec<Epoch> {
    match a {
        None => b,
        Some(mut a) => {
            if a.len() != b.len() {
                return if b.len() > a.len() { b } else { a };
            }
            for (x, y) in a.iter_mut().zip(b) {
                *x = (*x).max(y);
            }
            a
        }
    }
}

/// Tags a shard-level failure with the shard index. Typed remote errors
/// keep their code (a remote deadline stays [`code::DEADLINE`]);
/// transport failures become [`code::SHARD_FAILED`]. Replica addresses
/// are already in the detail (tagged by the group).
fn shard_error(i: usize, e: CqcError) -> CqcError {
    match e {
        CqcError::Io(m) => CqcError::Protocol {
            code: code::SHARD_FAILED,
            detail: format!("shard {i}: {m}"),
        },
        CqcError::Protocol { code: c, detail } => CqcError::Protocol {
            code: c,
            detail: format!("shard {i}: {detail}"),
        },
        other => other,
    }
}

impl BlockService for Router {
    fn register_view(
        &self,
        name: &str,
        query_text: &str,
        pattern: &str,
        strategy: &str,
    ) -> Result<Vec<Epoch>> {
        // Parse locally first: the fan-out decision needs the adorned
        // view, and a parse error should not reach the fleet.
        let view = parse_adorned(query_text, pattern)?;
        let route = Route::for_view(self.partitioning.spec(), &view)?;
        let req = RegisterReq {
            name: name.into(),
            query: query_text.into(),
            pattern: pattern.into(),
            strategy: strategy.into(),
        };
        // Register on every replica of every shard (a replica that
        // misses a registration could never serve or fail over) — in
        // parallel across shards, build time dominates.
        let results = fan_out(self.groups.iter().enumerate(), |(i, group)| {
            group.register(&req).map_err(|e| shard_error(i, e))
        });
        let mut expected = self.expected.write().expect("expected lock poisoned");
        let mut flat = Vec::new();
        for (i, r) in results.into_iter().enumerate() {
            let epochs = r?;
            expected[i] = epochs.clone();
            flat.extend(epochs);
        }
        self.routes
            .write()
            .expect("routes lock poisoned")
            .insert(name.to_string(), route);
        Ok(flat)
    }

    fn serve_into(&self, view: &str, bound: &[Value], sink: &mut dyn AnswerSink) -> Result<usize> {
        Ok(self
            .serve(view, bound, sink, &ServeOpts::default())?
            .answers)
    }

    fn apply_update(&self, delta: &Delta) -> Result<Vec<Epoch>> {
        let split = self.partitioning.split_delta(delta)?;
        // Hold the write lock across the fan-out: updates serialize at
        // the router (one writer at a time), which is what makes the
        // per-shard precondition an exact idempotency token.
        let mut expected = self.expected.write().expect("expected lock poisoned");
        let snapshot = expected.clone();
        // An untouched shard keeps its epoch.
        let touched = split.iter().enumerate().filter(|(_, sub)| !sub.is_empty());
        let results = fan_out(touched, |(i, sub)| {
            let updated = self.groups[i].update_preconditioned(sub, &snapshot[i]);
            (i, updated.map_err(|e| shard_error(i, e)))
        });
        for (i, r) in results {
            expected[i] = r?;
        }
        Ok(expected.iter().flatten().copied().collect())
    }

    fn version(&self) -> Vec<Epoch> {
        self.expected
            .read()
            .expect("expected lock poisoned")
            .iter()
            .flatten()
            .copied()
            .collect()
    }
}
