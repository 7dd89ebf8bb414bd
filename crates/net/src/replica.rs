//! Replica groups: R independent servers per shard, one healthy answer.
//!
//! The paper's representations are read-heavy and deterministic — two
//! replicas at the same epoch vector serve byte-identical streams — so a
//! shard's availability story is simply "ask another replica". This
//! module is that story, made precise:
//!
//! * **[`RetryPolicy`]** — a budgeted failover loop: capped exponential
//!   backoff with deterministic jitter (the crate-wide schedule in
//!   [`crate::backoff`], on the group's reserved failover lane; no
//!   `rand` in `cqc-net`), every wait capped by the *remaining* request
//!   deadline so retries can never overrun what the caller budgeted, and
//!   an optional hedge: if the primary replica has not answered within
//!   [`RetryPolicy::hedge_after`], the same request is launched on the
//!   next healthy replica and the first completion wins.
//! * **Mid-stream failover with prefix resume** — answers stream into
//!   the caller's block as chunks arrive, so a replica that dies
//!   mid-stream leaves a merged prefix behind. The next attempt replays
//!   the stream and *verifies* the overlap tuple-by-tuple against that
//!   prefix (the sorted-order cursor makes the comparison exact) instead
//!   of re-appending it; a verified prefix plus the live suffix equals
//!   the live replica's complete stream, so correctness never depends on
//!   the dead replica. Any overlap divergence discards the prefix and
//!   restarts clean.
//! * **Per-replica staleness** — a reply's epoch vector is checked
//!   against the group's expectation; a lagging replica (it missed an
//!   update its sibling applied) is *skipped*, not served stale, and not
//!   penalized on its breaker — it is healthy, just behind.
//! * **Per-replica [`CircuitBreaker`]s** — transport failures count
//!   against the replica's breaker, so a dead replica stops eating
//!   deadline budget after a few requests and is re-probed only after a
//!   cooldown.

use cqc_common::error::Result;
use cqc_common::frame::{code, is_request_error, ServePriority};
use cqc_common::{AnswerBlock, AnswerSink, CqcError, Value};
use cqc_storage::{Delta, Epoch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::backoff::{lane_seed, Backoff, FAILOVER_LANE};
use crate::breaker::{BreakerConfig, BreakerState, BreakerTransitions, CircuitBreaker};
use crate::budget::{RetryBudget, RetryBudgetConfig};
use crate::client::{ClientConfig, ShardClient};
use crate::protocol::RegisterReq;

/// The failover budget for one shard's serve attempt.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Serve attempts per request across the shard's replicas (≥ 1).
    pub attempts: u32,
    /// First inter-attempt backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling (before jitter scales into `[50%, 100%)`).
    pub backoff_cap: Duration,
    /// Wall-time budget for the whole request, retries and backoffs
    /// included; `None` is unbounded. Attempt socket timeouts are capped
    /// by what remains of this budget.
    pub request_deadline: Option<Duration>,
    /// If the primary replica has not completed within this, hedge the
    /// request on the next healthy replica (first completion wins).
    /// `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// The group's per-destination [`RetryBudget`] tuning: failovers and
    /// hedges spend a token each, successful serves earn a fraction
    /// back, and an empty bucket means the extra attempt simply does not
    /// launch (backpressure — never a breaker-visible failure).
    pub retry_budget: RetryBudgetConfig,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            request_deadline: Some(Duration::from_secs(10)),
            hedge_after: None,
            retry_budget: RetryBudgetConfig::default(),
        }
    }
}

/// A request's absolute deadline: the accounting side of
/// [`RetryPolicy::request_deadline`]. Copyable so every retry, backoff
/// sleep, and hedge wait measures against the *same* instant. Every method
/// takes the caller's `now`, so the accounting is a function of the
/// instants it is given: call sites pass `Instant::now()`, tests pass
/// constructed ones.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `budget` after `now` (`None` = unbounded).
    pub fn within(budget: Option<Duration>, now: Instant) -> Deadline {
        Deadline {
            at: budget.map(|b| now + b),
        }
    }

    /// Time left at `now` (`None` = unbounded; zero when expired).
    pub fn remaining(&self, now: Instant) -> Option<Duration> {
        self.at.map(|at| at.saturating_duration_since(now))
    }

    /// `true` once the budget is exhausted at `now`.
    pub fn expired(&self, now: Instant) -> bool {
        self.remaining(now).is_some_and(|r| r.is_zero())
    }

    /// Caps a wait starting at `now` by the remaining budget.
    pub fn cap(&self, d: Duration, now: Instant) -> Duration {
        match self.remaining(now) {
            Some(r) => d.min(r),
            None => d,
        }
    }

    /// Caps an optional socket timeout set at `now` by the remaining
    /// budget (at least 1 ms — zero-length socket timeouts are invalid at
    /// the OS level; the expiry check catches the budget itself).
    pub fn cap_io(&self, io: Option<Duration>, now: Instant) -> Option<Duration> {
        match (io, self.remaining(now)) {
            (None, None) => None,
            (Some(t), None) => Some(t),
            (None, Some(r)) => Some(r.max(Duration::from_millis(1))),
            (Some(t), Some(r)) => Some(t.min(r).max(Duration::from_millis(1))),
        }
    }

    /// Typed [`code::DEADLINE`] error once expired at `now`.
    ///
    /// # Errors
    ///
    /// [`code::DEADLINE`] iff the budget is exhausted.
    pub fn check(&self, what: &str, now: Instant) -> Result<()> {
        if self.expired(now) {
            return Err(CqcError::Protocol {
                code: code::DEADLINE,
                detail: format!("request deadline exhausted {what}"),
            });
        }
        Ok(())
    }
}

/// Counters the chaos harness reads: how often the fault machinery
/// actually engaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Attempts beyond a request's first (the failover count).
    pub failovers: u64,
    /// Replicas skipped for serving at a lagging/skewed epoch vector.
    pub stale_skips: u64,
    /// Attempts that resumed (and verified) a dead replica's prefix.
    pub prefix_resumes: u64,
    /// Hedge launches (primary exceeded [`RetryPolicy::hedge_after`]).
    pub hedges: u64,
    /// Hedges whose result won over the primary's.
    pub hedge_wins: u64,
    /// Replica update attempts that failed (the replica is now stale
    /// until re-synced; serves skip it via the epoch check).
    pub update_failures: u64,
    /// Failovers/hedges the retry budget funded.
    pub budget_spent: u64,
    /// Failovers/hedges the retry budget suppressed (each one is load
    /// that was *not* sent to an already-struggling fleet).
    pub budget_denied: u64,
}

impl GroupStats {
    /// The counters as `(name, value)` pairs, in field order: what a
    /// `Stats` reply carries.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        let GroupStats {
            failovers,
            stale_skips,
            prefix_resumes,
            hedges,
            hedge_wins,
            update_failures,
            budget_spent,
            budget_denied,
        } = *self;
        vec![
            ("failovers", failovers),
            ("stale_skips", stale_skips),
            ("prefix_resumes", prefix_resumes),
            ("hedges", hedges),
            ("hedge_wins", hedge_wins),
            ("update_failures", update_failures),
            ("budget_spent", budget_spent),
            ("budget_denied", budget_denied),
        ]
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    failovers: AtomicU64,
    stale_skips: AtomicU64,
    prefix_resumes: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    update_failures: AtomicU64,
}

/// One replica: its address, its dedicated connection, its breaker.
#[derive(Debug)]
pub struct Replica {
    addr: String,
    client: Mutex<ShardClient>,
    breaker: CircuitBreaker,
}

impl Replica {
    /// The replica's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The replica's breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }
}

/// How one serve attempt on one replica ended (internal taxonomy — the
/// breaker only ever hears about `Fault`s).
enum AttemptFail {
    /// The replica refused the request for what it asks
    /// ([`is_request_error`]): it answered correctly and so would any
    /// other. The request ends here — no breaker penalty, no failover, no
    /// retry budget.
    Request(CqcError),
    /// Transport or typed remote failure: penalize the breaker, fail
    /// over.
    Fault(CqcError),
    /// Version skew (lagging or out-of-band): skip the replica, no
    /// breaker penalty.
    Stale(CqcError),
    /// The resumed stream contradicted the held prefix (or ended inside
    /// it): prefix discarded, retry clean. No breaker penalty.
    Diverged,
    /// The replica's connection is busy (a hedge loser still draining):
    /// try another. No breaker penalty.
    Busy,
}

/// R replicas of one shard behind a single serve/update facade.
#[derive(Debug)]
pub struct ReplicaGroup {
    shard: usize,
    replicas: Vec<Replica>,
    policy: RetryPolicy,
    base_io: Option<Duration>,
    failover_backoff: Backoff,
    budget: RetryBudget,
    stats: StatsInner,
}

impl ReplicaGroup {
    /// A group for shard `shard` over `addrs` (replica 0 is the
    /// primary). Each replica's client gets its own backoff lane
    /// ([`crate::backoff::lane_seed`] over `(shard, replica)`) and the
    /// group's failover loop takes the reserved
    /// [`crate::backoff::FAILOVER_LANE`], so a fleet-wide outage does
    /// not retry in lockstep. The group's budgeted attempts are the one
    /// retry layer: replica clients retry no [`code::REFUSED`] reply of
    /// their own (`refused_retries: 0`, whatever `config` says).
    /// Connections are lazy; see `Router::connect_replicated` for the
    /// eager health probe.
    pub fn new(
        shard: usize,
        addrs: &[String],
        config: ClientConfig,
        breaker: BreakerConfig,
        policy: RetryPolicy,
    ) -> ReplicaGroup {
        let replicas = addrs
            .iter()
            .enumerate()
            .map(|(r, addr)| {
                let seeded = ClientConfig {
                    jitter_seed: lane_seed(config.jitter_seed, shard, r as u64),
                    refused_retries: 0,
                    ..config
                };
                Replica {
                    addr: addr.clone(),
                    client: Mutex::new(ShardClient::new(addr.clone(), seeded)),
                    breaker: CircuitBreaker::new(breaker),
                }
            })
            .collect();
        ReplicaGroup {
            shard,
            replicas,
            policy,
            base_io: config.io_timeout,
            failover_backoff: Backoff::new(
                policy.backoff_base,
                policy.backoff_cap,
                lane_seed(config.jitter_seed, shard, FAILOVER_LANE),
            ),
            budget: RetryBudget::new(policy.retry_budget),
            stats: StatsInner::default(),
        }
    }

    /// The shard index this group serves.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The replicas, primary first.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Replica addresses, primary first.
    pub fn addrs(&self) -> Vec<String> {
        self.replicas.iter().map(|r| r.addr.clone()).collect()
    }

    /// Snapshot of the group's fault counters.
    pub fn stats(&self) -> GroupStats {
        GroupStats {
            failovers: self.stats.failovers.load(Ordering::Relaxed),
            stale_skips: self.stats.stale_skips.load(Ordering::Relaxed),
            prefix_resumes: self.stats.prefix_resumes.load(Ordering::Relaxed),
            hedges: self.stats.hedges.load(Ordering::Relaxed),
            hedge_wins: self.stats.hedge_wins.load(Ordering::Relaxed),
            update_failures: self.stats.update_failures.load(Ordering::Relaxed),
            budget_spent: self.budget.spent(),
            budget_denied: self.budget.denied(),
        }
    }

    /// The group's shared retry budget (failovers and hedges draw on
    /// it; successful serves refill it).
    pub fn retry_budget(&self) -> &RetryBudget {
        &self.budget
    }

    /// Cumulative wire traffic across the group's replica connections:
    /// `(bytes received, bytes sent)`.
    pub fn wire_bytes(&self) -> (u64, u64) {
        let mut totals = (0u64, 0u64);
        for r in &self.replicas {
            let (rx, tx) = r
                .client
                .lock()
                .expect("replica client poisoned")
                .wire_bytes();
            totals.0 += rx;
            totals.1 += tx;
        }
        totals
    }

    /// Summed breaker transitions across the group's replicas.
    pub fn breaker_transitions(&self) -> BreakerTransitions {
        let mut sum = BreakerTransitions::default();
        for r in &self.replicas {
            let t = r.breaker.transitions();
            sum.opened += t.opened;
            sum.half_opened += t.half_opened;
            sum.closed += t.closed;
        }
        sum
    }

    /// Health-probes every replica: `(addr, epoch vector or error)` in
    /// replica order. Used at connect time and for re-syncs.
    pub fn probe(&self) -> Vec<(String, Result<Vec<Epoch>>)> {
        self.replicas
            .iter()
            .map(|r| {
                let outcome = r.client.lock().expect("replica client poisoned").health();
                (r.addr.clone(), outcome)
            })
            .collect()
    }

    /// Registers a view on every replica (all must succeed — a replica
    /// that misses a registration could never serve the view). Returns
    /// the epoch vector of the last replica.
    ///
    /// # Errors
    ///
    /// The first replica failure, tagged with its address.
    pub fn register(&self, req: &RegisterReq) -> Result<Vec<Epoch>> {
        let mut epochs = Vec::new();
        for r in &self.replicas {
            epochs = r
                .client
                .lock()
                .expect("replica client poisoned")
                .register(req)
                .map_err(|e| tag_replica(&r.addr, e))?;
        }
        Ok(epochs)
    }

    fn first_allowed(&self, rotation: usize, exclude: Option<usize>) -> Option<usize> {
        let n = self.replicas.len();
        (0..n)
            .map(|k| (rotation + k) % n)
            .find(|&i| Some(i) != exclude && self.replicas[i].breaker.allow())
    }

    /// One serve attempt on replica `idx`, with breaker bookkeeping.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        idx: usize,
        view: &str,
        bound: &[Value],
        expected: &[Epoch],
        priority: ServePriority,
        deadline: Deadline,
        out: &mut AnswerBlock,
        base: usize,
    ) -> std::result::Result<(), AttemptFail> {
        let replica = &self.replicas[idx];
        let Ok(mut client) = replica.client.try_lock() else {
            return Err(AttemptFail::Busy);
        };
        if client
            .set_io_timeout(deadline.cap_io(self.base_io, Instant::now()))
            .is_err()
        {
            return Err(AttemptFail::Fault(CqcError::Io(
                "could not arm the attempt timeout".into(),
            )));
        }
        let pre_len = out.len();
        let skip = pre_len - base;
        if skip > 0 {
            self.stats.prefix_resumes.fetch_add(1, Ordering::Relaxed);
        }
        let mut sink = ResumeSink {
            out,
            base,
            skip,
            replayed: 0,
            diverged: false,
        };
        match client.serve_with_sink_opts(view, bound, &mut sink, priority, deadline) {
            Err(e) if is_request_error(&e) => Err(AttemptFail::Request(e)),
            Err(e) => {
                // The prefix (possibly extended by this attempt's chunks)
                // is kept: the next attempt re-verifies the whole overlap.
                replica.breaker.record_failure();
                Err(AttemptFail::Fault(e))
            }
            Ok((_pushed, epochs)) => {
                if sink.diverged {
                    // Two replicas disagreed inside the overlap: the held
                    // prefix has no authority. Start clean.
                    out.truncate(base);
                    Err(AttemptFail::Diverged)
                } else if epochs != expected {
                    // Completed, but at the wrong version: roll back to
                    // what we held before this attempt and skip the
                    // replica (lagging or out-of-band skew — either way
                    // it must not contribute answers).
                    out.truncate(pre_len);
                    let lagging = epochs.len() == expected.len()
                        && epochs.iter().zip(expected).all(|(e, x)| e <= x);
                    self.stats.stale_skips.fetch_add(1, Ordering::Relaxed);
                    Err(AttemptFail::Stale(CqcError::Protocol {
                        code: code::EPOCH_MISMATCH,
                        detail: format!(
                            "replica {} served at epochs {epochs:?}, expected {expected:?}{}",
                            replica.addr,
                            if lagging {
                                " (replica lagging; skipped)"
                            } else {
                                "; re-sync with health_check()"
                            }
                        ),
                    }))
                } else if sink.replayed < skip {
                    // The correct stream is *shorter* than the held
                    // prefix: the prefix was wrong. Start clean.
                    out.truncate(base);
                    replica.breaker.record_success();
                    Err(AttemptFail::Diverged)
                } else {
                    replica.breaker.record_success();
                    Ok(())
                }
            }
        }
    }

    /// Serves one request into `out` (appending), failing over across
    /// replicas under the group's [`RetryPolicy`]; the priority class is
    /// threaded (with the remaining deadline) onto the wire for the
    /// primary attempt, every failover, and every hedge. Returns the
    /// number of answers appended.
    ///
    /// # Errors
    ///
    /// [`code::DEADLINE`] when the budget runs out mid-failover, the
    /// last replica error when the attempt budget runs out, a typed
    /// [`code::REFUSED`] when the retry budget cannot fund another
    /// failover, or a typed "no replica available" failure when every
    /// breaker is open.
    pub fn serve(
        self: &Arc<Self>,
        view: &str,
        bound: &[Value],
        expected: &[Epoch],
        priority: ServePriority,
        deadline: Deadline,
        out: &mut AnswerBlock,
    ) -> Result<usize> {
        let base = out.len();
        if let Some(won) = self.hedged_round(view, bound, expected, priority, deadline, out, base) {
            return won;
        }
        let mut last_err: Option<CqcError> = None;
        let attempts = self.policy.attempts.max(1);
        for attempt in 0..attempts {
            deadline.check("before a serve attempt", Instant::now())?;
            if attempt > 0 {
                // A failover is a retry: it must be funded by the
                // group's budget, or the fleet-wide amplification bound
                // is fiction. A drained bucket is backpressure — the
                // last real error surfaces, no breaker is touched.
                if !self.budget.try_spend() {
                    return Err(budget_exhausted_error(self.shard, last_err.as_ref()));
                }
                self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                let nap = deadline.cap(self.failover_backoff.delay(attempt - 1), Instant::now());
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
                deadline.check("after the failover backoff", Instant::now())?;
            }
            let Some(idx) = self.first_allowed(attempt as usize, None) else {
                return Err(last_err.unwrap_or_else(|| self.all_down_error()));
            };
            match self.attempt(idx, view, bound, expected, priority, deadline, out, base) {
                Ok(()) => {
                    self.budget.record_success();
                    return Ok(out.len() - base);
                }
                Err(AttemptFail::Request(e)) => return Err(e),
                Err(AttemptFail::Fault(e)) | Err(AttemptFail::Stale(e)) => last_err = Some(e),
                Err(AttemptFail::Diverged) => {
                    last_err = Some(CqcError::Protocol {
                        code: code::SHARD_FAILED,
                        detail: "resumed stream diverged from the held prefix".into(),
                    });
                }
                Err(AttemptFail::Busy) => {
                    last_err = Some(CqcError::Protocol {
                        code: code::REFUSED,
                        detail: format!(
                            "replica {} connection busy (hedge in flight)",
                            self.replicas[idx].addr
                        ),
                    });
                }
            }
        }
        Err(last_err.unwrap_or_else(|| self.all_down_error()))
    }

    /// The optional hedged first round: launch the primary in a helper
    /// thread, wait [`RetryPolicy::hedge_after`], and race a second
    /// replica if the primary is slow. `None` means "not hedged — run
    /// the normal failover loop" (hedging disabled, < 2 replicas, a
    /// prefix is held, the retry budget would not fund the hedge, or
    /// both racers failed).
    #[allow(clippy::too_many_arguments)]
    fn hedged_round(
        self: &Arc<Self>,
        view: &str,
        bound: &[Value],
        expected: &[Epoch],
        priority: ServePriority,
        deadline: Deadline,
        out: &mut AnswerBlock,
        base: usize,
    ) -> Option<Result<usize>> {
        let hedge_after = self.policy.hedge_after?;
        if self.replicas.len() < 2 || out.len() != base {
            return None;
        }
        let primary = self.first_allowed(0, None)?;
        let (tx, rx) = mpsc::channel();
        let me = Arc::clone(self);
        let (v, b, x) = (view.to_string(), bound.to_vec(), expected.to_vec());
        std::thread::spawn(move || {
            let mut block = AnswerBlock::new();
            let outcome = me.attempt(primary, &v, &b, &x, priority, deadline, &mut block, 0);
            let _ = tx.send((outcome, block));
        });
        match rx.recv_timeout(deadline.cap(hedge_after, Instant::now())) {
            Ok((Ok(()), block)) => {
                self.budget.record_success();
                adopt(out, &block);
                Some(Ok(out.len() - base))
            }
            Ok((Err(AttemptFail::Request(e)), _)) => Some(Err(e)),
            Ok((Err(_), block)) => {
                // Primary failed fast. If it died mid-stream, its flushed
                // prefix is worth keeping: the failover loop will verify
                // it against the next replica's replay instead of
                // re-merging it. (Stale/busy attempts truncate the block
                // themselves, so only a mid-stream fault leaves tuples.)
                adopt(out, &block);
                None
            }
            Err(_) => {
                // Primary is slow (or the deadline is closing in): hedge
                // — but a hedge is duplicate load, so it launches only if
                // the retry budget funds it. Unfunded, we simply keep
                // waiting on the primary (backpressure, not failure).
                if !self.budget.try_spend() {
                    return match deadline
                        .remaining(Instant::now())
                        .map_or_else(|| rx.recv().ok(), |r| rx.recv_timeout(r).ok())
                    {
                        Some((Ok(()), block)) => {
                            self.budget.record_success();
                            adopt(out, &block);
                            Some(Ok(out.len() - base))
                        }
                        Some((Err(AttemptFail::Request(e)), _)) => Some(Err(e)),
                        Some((Err(_), block)) => {
                            adopt(out, &block);
                            None
                        }
                        None => None,
                    };
                }
                self.stats.hedges.fetch_add(1, Ordering::Relaxed);
                let alt = self.first_allowed(1, Some(primary))?;
                let mut hedge_block = AnswerBlock::new();
                let hedged = self.attempt(
                    alt,
                    view,
                    bound,
                    expected,
                    priority,
                    deadline,
                    &mut hedge_block,
                    0,
                );
                // The primary may have finished while the hedge ran;
                // prefer whichever succeeded (primary on a tie — it was
                // first on the wire).
                if let Ok((Ok(()), block)) = rx.try_recv() {
                    self.budget.record_success();
                    adopt(out, &block);
                    return Some(Ok(out.len() - base));
                }
                match hedged {
                    Ok(()) => {
                        self.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                        self.budget.record_success();
                        adopt(out, &hedge_block);
                        Some(Ok(out.len() - base))
                    }
                    Err(AttemptFail::Request(e)) => Some(Err(e)),
                    Err(_) => {
                        // Both racers failed (so far): give the primary
                        // until the deadline, then fall back to the loop.
                        match deadline
                            .remaining(Instant::now())
                            .map_or_else(|| rx.recv().ok(), |r| rx.recv_timeout(r).ok())
                        {
                            Some((Ok(()), block)) => {
                                self.budget.record_success();
                                adopt(out, &block);
                                Some(Ok(out.len() - base))
                            }
                            _ => None,
                        }
                    }
                }
            }
        }
    }

    fn all_down_error(&self) -> CqcError {
        CqcError::Protocol {
            code: code::SHARD_FAILED,
            detail: format!(
                "shard {}: no replica available (breakers open on {})",
                self.shard,
                self.addrs().join(", ")
            ),
        }
    }

    /// Applies a preconditioned delta to every replica. The group
    /// succeeds when at least one replica lands at the new vector;
    /// replicas that fail are recorded (and left stale — the per-replica
    /// epoch check keeps them out of serves until an operator re-syncs
    /// them). An ambiguous I/O failure on a replica is retried under the
    /// same precondition: a retry of a delta that already landed comes
    /// back [`code::EPOCH_MISMATCH`], and a health probe exactly one
    /// bump past `expected` proves the first attempt applied — the
    /// idempotency contract, pinned by the fault suite.
    ///
    /// # Errors
    ///
    /// The first replica error when *no* replica applied the delta, or a
    /// typed divergence error if two replicas report different
    /// post-update vectors.
    pub fn update_preconditioned(&self, delta: &Delta, expected: &[Epoch]) -> Result<Vec<Epoch>> {
        let mut landed: Option<Vec<Epoch>> = None;
        let mut first_err: Option<CqcError> = None;
        for r in &self.replicas {
            if !r.breaker.allow() {
                self.stats.update_failures.fetch_add(1, Ordering::Relaxed);
                if first_err.is_none() {
                    first_err = Some(tag_replica(&r.addr, self.all_down_error()));
                }
                continue;
            }
            match self.update_on(r, delta, expected) {
                Ok(v) => {
                    r.breaker.record_success();
                    if let Some(prev) = &landed {
                        if *prev != v {
                            return Err(CqcError::Protocol {
                                code: code::EPOCH_MISMATCH,
                                detail: format!(
                                    "shard {} replicas diverged after an update: {prev:?} vs \
                                     {v:?} ({})",
                                    self.shard, r.addr
                                ),
                            });
                        }
                    }
                    landed = Some(v);
                }
                Err(e) => {
                    if matches!(e, CqcError::Io(_)) {
                        r.breaker.record_failure();
                    }
                    self.stats.update_failures.fetch_add(1, Ordering::Relaxed);
                    if first_err.is_none() {
                        first_err = Some(tag_replica(&r.addr, e));
                    }
                }
            }
        }
        match landed {
            Some(v) => Ok(v),
            None => Err(first_err.unwrap_or_else(|| self.all_down_error())),
        }
    }

    /// One replica's preconditioned update, with the ambiguous-Io
    /// reconciliation described on [`ReplicaGroup::update_preconditioned`].
    fn update_on(&self, r: &Replica, delta: &Delta, expected: &[Epoch]) -> Result<Vec<Epoch>> {
        let mut client = r.client.lock().expect("replica client poisoned");
        client.set_io_timeout(self.base_io)?;
        match client.update(delta, Some(expected)) {
            Err(CqcError::Io(_)) => {
                // Ambiguous: the delta may or may not have applied before
                // the transport died. The precondition makes the retry
                // safe either way.
                match client.update(delta, Some(expected)) {
                    Err(CqcError::Protocol {
                        code: code::EPOCH_MISMATCH,
                        detail,
                    }) => {
                        let now = client.health()?;
                        if plausibly_applied(expected, &now) {
                            Ok(now) // the first attempt landed
                        } else {
                            Err(CqcError::Protocol {
                                code: code::EPOCH_MISMATCH,
                                detail,
                            })
                        }
                    }
                    other => other,
                }
            }
            other => other,
        }
    }
}

/// `now` is exactly one application past `expected`: elementwise
/// `expected ≤ now ≤ expected + 1`, with at least one bump. (A single
/// delta bumps each touched shard epoch by at most one.)
fn plausibly_applied(expected: &[Epoch], now: &[Epoch]) -> bool {
    now.len() == expected.len()
        && now != expected
        && now
            .iter()
            .zip(expected)
            .all(|(n, x)| *n >= *x && *n <= x + 1)
}

/// The typed backpressure error for a drained retry budget. Carries the
/// last real replica error (if any) so the caller still sees *why* the
/// failovers were being attempted.
fn budget_exhausted_error(shard: usize, last: Option<&CqcError>) -> CqcError {
    CqcError::Protocol {
        code: code::REFUSED,
        detail: match last {
            Some(e) => format!("shard {shard}: retry budget exhausted; last attempt: {e}"),
            None => format!("shard {shard}: retry budget exhausted"),
        },
    }
}

fn tag_replica(addr: &str, e: CqcError) -> CqcError {
    match e {
        CqcError::Io(m) => CqcError::Io(format!("replica {addr}: {m}")),
        CqcError::Protocol { code: c, detail } => CqcError::Protocol {
            code: c,
            detail: format!("replica {addr}: {detail}"),
        },
        other => other,
    }
}

/// Replaces `out`'s answers past its current length with `winner`'s —
/// the hedge adoption point (`out` is empty past `base` by construction
/// when hedging runs).
fn adopt(out: &mut AnswerBlock, winner: &AnswerBlock) {
    for t in winner.iter() {
        out.push(t);
    }
}

/// The resuming sink: replays (and verifies) the first `skip` answers
/// against the prefix already held in `out`, then appends the rest. At a
/// fixed epoch the stream is deterministic, so a verified overlap means
/// the final block equals the live replica's complete stream.
struct ResumeSink<'b> {
    out: &'b mut AnswerBlock,
    base: usize,
    skip: usize,
    replayed: usize,
    diverged: bool,
}

impl AnswerSink for ResumeSink<'_> {
    fn push(&mut self, tuple: &[Value]) -> bool {
        if self.replayed < self.skip {
            if self.out.get(self.base + self.replayed) != tuple {
                self.diverged = true;
                return false; // hang up: the prefix has no authority
            }
            self.replayed += 1;
            true
        } else {
            self.out.push(tuple)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On constructed instants, so the accounting is exact: a 50 ms
    /// budget has 1 ms left at `start + 49 ms` and none at `start + 50 ms`.
    #[test]
    fn deadline_accounting_caps_every_wait() {
        let start = Instant::now();
        let ms = Duration::from_millis;
        let (before, at) = (start + ms(49), start + ms(50));
        let d = Deadline::within(Some(ms(50)), start);
        assert_eq!(d.remaining(start), Some(ms(50)));
        assert_eq!(d.remaining(before), Some(ms(1)));
        assert!(!d.expired(before));
        assert!(d.check("in a test", before).is_ok());
        assert_eq!(d.cap(Duration::from_secs(10), before), ms(1));
        assert_eq!(
            d.cap(Duration::from_micros(300), before),
            Duration::from_micros(300)
        );
        assert_eq!(d.cap_io(Some(Duration::from_secs(5)), before), Some(ms(1)));
        assert_eq!(d.cap_io(None, before), Some(ms(1)));
        assert_eq!(d.remaining(at), Some(Duration::ZERO));
        assert!(d.expired(at));
        assert_eq!(d.cap(Duration::from_secs(10), at), Duration::ZERO);
        // Even expired, the socket timeout floor is 1 ms (never zero).
        assert_eq!(d.cap_io(Some(Duration::from_secs(1)), at), Some(ms(1)));
        assert_eq!(d.cap_io(None, at), Some(ms(1)));
        let err = d.check("in a test", at).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::DEADLINE,
                    ..
                }
            ),
            "{err}"
        );
        let unbounded = Deadline::within(None, start);
        assert_eq!(unbounded.remaining(at), None);
        assert!(!unbounded.expired(at));
        assert_eq!(
            unbounded.cap(Duration::from_secs(7), at),
            Duration::from_secs(7)
        );
        assert_eq!(unbounded.cap_io(None, at), None);
        assert_eq!(unbounded.cap_io(Some(ms(3)), at), Some(ms(3)));
    }

    #[test]
    fn plausibly_applied_is_exactly_one_bump() {
        assert!(plausibly_applied(&[3, 7], &[4, 7]));
        assert!(plausibly_applied(&[3, 7], &[4, 8]));
        assert!(!plausibly_applied(&[3, 7], &[3, 7]), "no bump");
        assert!(!plausibly_applied(&[3, 7], &[5, 7]), "two bumps");
        assert!(!plausibly_applied(&[3, 7], &[2, 7]), "regression");
        assert!(!plausibly_applied(&[3, 7], &[4]), "length skew");
    }

    #[test]
    fn resume_sink_verifies_the_overlap() {
        let mut out = AnswerBlock::new();
        out.push(&[1, 2]);
        out.push(&[3, 4]);
        // Matching replay, then fresh answers append.
        let mut sink = ResumeSink {
            out: &mut out,
            base: 0,
            skip: 2,
            replayed: 0,
            diverged: false,
        };
        assert!(sink.push(&[1, 2]));
        assert!(sink.push(&[3, 4]));
        assert!(sink.push(&[5, 6]));
        assert!(!sink.diverged);
        assert_eq!(out.len(), 3);
        // A divergent replay stops the stream and flags the prefix.
        let mut out = AnswerBlock::new();
        out.push(&[1, 2]);
        let mut sink = ResumeSink {
            out: &mut out,
            base: 0,
            skip: 1,
            replayed: 0,
            diverged: false,
        };
        assert!(!sink.push(&[9, 9]));
        assert!(sink.diverged);
    }
}
