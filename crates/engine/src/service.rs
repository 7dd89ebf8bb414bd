//! [`BlockService`] — the one trait local and remote serving share.
//!
//! The remote tier (`cqc-net`) needs every participant — a single
//! [`Engine`] behind a shard server, a [`ShardedEngine`] spanning cores,
//! and the network router fronting a fleet — to answer the same four
//! requests: register a view, stream a request's answers, apply a delta,
//! and report a version vector. This trait is that contract, shaped like
//! the wire protocol so a network hop neither adds nor loses capability:
//!
//! * policies travel as the compact **strategy token** grammar
//!   ([`Policy::parse`]) rather than as a `Policy` value, so a register
//!   request is expressible in a frame;
//! * answers are pushed into a `&mut dyn AnswerSink` — the object-safe
//!   handle a connection handler owns — and arrive in the paper's
//!   lexicographic enumeration order, which is what lets a router k-way
//!   merge per-shard streams back into one exact order;
//! * versions are **epoch vectors** (one entry per shard; length 1 for a
//!   single engine), the consistency token the router checks per request.

use crate::engine::Engine;
use crate::policy::Policy;
use crate::sharded::ShardedEngine;
use cqc_common::error::Result;
use cqc_common::{AnswerBlock, AnswerSink, BlockMerger, Value};
use cqc_query::parser::parse_adorned;
use cqc_storage::{Delta, Epoch};

/// A view-serving participant: local engine, sharded engine, or a remote
/// fleet behind a router — interchangeable behind one object-safe trait.
pub trait BlockService: Send + Sync {
    /// Registers `query_text` + `pattern` under `name` with the strategy
    /// described by `strategy` (the [`Policy::parse`] token grammar).
    /// Returns the epoch vector the registration observed.
    ///
    /// # Errors
    ///
    /// Token parse failures ([`cqc_common::CqcError::Config`]) plus the
    /// underlying registration failure modes.
    fn register_view(
        &self,
        name: &str,
        query_text: &str,
        pattern: &str,
        strategy: &str,
    ) -> Result<Vec<Epoch>>;

    /// Streams one request's answers into `sink` in lexicographic
    /// enumeration order; returns the answer count (the sink may have
    /// stopped the stream early, in which case the count is what was
    /// pushed).
    ///
    /// # Errors
    ///
    /// Unknown view, bound-arity mismatch, or a rebuild failure.
    fn serve_into(&self, view: &str, bound: &[Value], sink: &mut dyn AnswerSink) -> Result<usize>;

    /// Applies a batched delta; returns the post-delta epoch vector.
    ///
    /// # Errors
    ///
    /// Routing/schema failures before anything is applied; shard update
    /// failures after.
    fn apply_update(&self, delta: &Delta) -> Result<Vec<Epoch>>;

    /// [`BlockService::apply_update`] preconditioned on the caller's
    /// last-known epoch vector — the idempotency handle a *retrying*
    /// client needs. An update whose first attempt died with an ambiguous
    /// I/O error may or may not have applied; retrying it blind risks a
    /// double apply. With a precondition the retry is safe: if the first
    /// attempt landed, the service's version has moved past `expected`
    /// and the retry is rejected with a typed
    /// [`cqc_common::frame::code::EPOCH_MISMATCH`] instead of applied
    /// twice (the client then reconciles via a health probe — a version
    /// exactly one bump past `expected` means "already applied").
    ///
    /// `expected == None` degrades to the unconditioned apply. The
    /// default implementation is check-then-apply without a lock across
    /// the two steps: callers that serialize writers per service (the
    /// router does — one connection per replica, one writer at a time)
    /// get exact semantics; concurrent out-of-band writers can still
    /// interleave, which the epoch check on the *next* request catches.
    ///
    /// # Errors
    ///
    /// [`cqc_common::frame::code::EPOCH_MISMATCH`] when the current
    /// version differs from `expected`; otherwise the
    /// [`BlockService::apply_update`] failure modes.
    fn apply_update_preconditioned(
        &self,
        delta: &Delta,
        expected: Option<&[Epoch]>,
    ) -> Result<Vec<Epoch>> {
        if let Some(want) = expected {
            let now = self.version();
            if now != want {
                return Err(cqc_common::CqcError::Protocol {
                    code: cqc_common::frame::code::EPOCH_MISMATCH,
                    detail: format!(
                        "update preconditioned on epochs {want:?} but the service is at \
                         {now:?}; re-probe and reconcile before retrying"
                    ),
                });
            }
        }
        self.apply_update(delta)
    }

    /// The current epoch vector (length = shard count; length 1 for a
    /// single engine).
    ///
    /// Replica semantics: every replica of a shard applies the same
    /// updates in the same order, so replicas at the same epoch vector
    /// hold identical state and serve identical streams (enumeration
    /// order is deterministic). A replica whose vector lags its group's
    /// expectation is *stale* — safe to skip, never safe to serve.
    fn version(&self) -> Vec<Epoch>;

    /// The measured serve cost for `view` in nanoseconds (an EWMA of
    /// recent serve wall times), if this service tracks one. An
    /// admission controller uses it to shed a request whose remaining
    /// deadline budget cannot cover the serve it is asking for *before*
    /// any enumeration work. `None` — the default — means "unknown";
    /// an unknown cost must never shed.
    fn serve_cost_ns(&self, view: &str) -> Option<u64> {
        let _ = view;
        None
    }
}

/// Runs `f` once per target and returns the results in target order: the
/// first target on the calling thread, each other one on its own scoped
/// thread. One target spawns nothing; zero targets run nothing. This is
/// the one per-call fan-out of `cqc-engine` and `cqc-net` (shard builds,
/// serves and updates, replica-group requests, [`stripe_requests`]).
///
/// The work counters and build phases of [`cqc_common::metrics`] are
/// thread-local, so what the first target does accrues to the caller's
/// counters and what the others do is not seen by the caller.
///
/// A panic in any target is re-raised on the calling thread once every
/// target has finished.
pub fn fan_out<A: Send, T: Send>(
    targets: impl IntoIterator<Item = A>,
    f: impl Fn(A) -> T + Sync,
) -> Vec<T> {
    let mut targets = targets.into_iter().peekable();
    let Some(first) = targets.next() else {
        return Vec::new();
    };
    if targets.peek().is_none() {
        return vec![f(first)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let rest: Vec<_> = targets.map(|a| scope.spawn(move || f(a))).collect();
        let mut out = Vec::with_capacity(rest.len() + 1);
        out.push(f(first));
        out.extend(
            rest.into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        out
    })
}

/// Runs `f(0)`, …, `f(requests - 1)` striped round-robin across `threads`
/// workers ([`fan_out`]: the first on the calling thread) and returns the
/// results in request order — how one shared service answers a request
/// list from several readers at once (every worker hits the same catalog,
/// so a view built once serves all threads).
///
/// # Errors
///
/// The first failing request's error (by request order), if any.
pub fn stripe_requests<T: Send>(
    requests: usize,
    threads: usize,
    f: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let threads = threads.clamp(1, requests.max(1));
    let mut stripes: Vec<_> = fan_out(0..threads, |worker| {
        (worker..requests)
            .step_by(threads)
            .map(&f)
            .collect::<Vec<_>>()
    })
    .into_iter()
    .map(Vec::into_iter)
    .collect();
    (0..requests)
        .map(|i| stripes[i % threads].next().expect("stripe holds request"))
        .collect()
}

/// Streams one request from `engine` into `sink`; returns how many answers
/// it pushed.
fn enumerate_into(
    engine: &Engine,
    view: &str,
    bound: &[Value],
    sink: &mut dyn AnswerSink,
) -> Result<usize> {
    let mut count = 0usize;
    let mut counted = cqc_common::FnSink(|t: &[Value]| {
        count += 1;
        sink.push(t)
    });
    engine.with_view_enumerator(view, |enumerator| {
        enumerator.answer_into(bound, &mut counted)
    })??;
    Ok(count)
}

impl BlockService for Engine {
    fn register_view(
        &self,
        name: &str,
        query_text: &str,
        pattern: &str,
        strategy: &str,
    ) -> Result<Vec<Epoch>> {
        let policy = Policy::parse(strategy)?;
        self.register_text(name, query_text, pattern, policy)?;
        Ok(vec![self.epoch()])
    }

    fn serve_into(&self, view: &str, bound: &[Value], sink: &mut dyn AnswerSink) -> Result<usize> {
        let started = std::time::Instant::now();
        let count = enumerate_into(self, view, bound, sink)?;
        // Feed the admission controller's cost estimate from the serves
        // that actually happen (early-stopped streams included — the
        // wall time a caller paid is the wall time the estimate needs).
        self.record_serve_cost(view, started.elapsed().as_nanos() as u64);
        Ok(count)
    }

    fn apply_update(&self, delta: &Delta) -> Result<Vec<Epoch>> {
        Ok(vec![Engine::update(self, delta)?.epoch])
    }

    fn version(&self) -> Vec<Epoch> {
        vec![self.epoch()]
    }

    fn serve_cost_ns(&self, view: &str) -> Option<u64> {
        Engine::serve_cost_ns(self, view)
    }
}

impl BlockService for ShardedEngine {
    fn register_view(
        &self,
        name: &str,
        query_text: &str,
        pattern: &str,
        strategy: &str,
    ) -> Result<Vec<Epoch>> {
        let policy = Policy::parse(strategy)?;
        self.register(name, parse_adorned(query_text, pattern)?, policy)?;
        Ok(ShardedEngine::version(self))
    }

    fn serve_into(
        &self,
        view: &str,
        bound: &[Value],
        mut sink: &mut dyn AnswerSink,
    ) -> Result<usize> {
        // A request one shard answers in full streams straight from it.
        if let Some(s) = self.route(view)?.shard_for(bound, self.num_shards()) {
            return enumerate_into(self.shard(s), view, bound, sink);
        }
        // Otherwise per-shard blocks, then the k-way merge restores the
        // global order before anything reaches the sink.
        let mut scratch = crate::sharded::ShardedBlocks::new();
        let bounds = [bound.to_vec()];
        self.serve_blocks_into(view, &bounds, &mut scratch)?;
        let refs: Vec<&AnswerBlock> = scratch.request_blocks(0).collect();
        Ok(BlockMerger::new().merge_into(&refs, &mut sink))
    }

    fn apply_update(&self, delta: &Delta) -> Result<Vec<Epoch>> {
        ShardedEngine::update(self, delta)
    }

    fn version(&self) -> Vec<Epoch> {
        ShardedEngine::version(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{spec_for_view, ShardedEngineConfig};
    use cqc_storage::{Database, Relation};

    fn db() -> Database {
        let pairs = vec![(1, 2), (2, 3), (3, 1), (1, 3), (2, 1)];
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            db.add(Relation::from_pairs(name, pairs.clone())).unwrap();
        }
        db
    }

    const QUERY: &str = "V(x,y,z) :- R(x,y), S(y,z), T(z,x)";

    fn sharded(shards: usize) -> ShardedEngine {
        let view = parse_adorned(QUERY, "bff").unwrap();
        let spec = spec_for_view(&view, &db());
        ShardedEngine::new(
            db(),
            spec,
            ShardedEngineConfig {
                shards,
                ..ShardedEngineConfig::default()
            },
        )
        .unwrap()
    }

    fn collect(svc: &dyn BlockService, view: &str, bound: &[Value]) -> Vec<Vec<Value>> {
        let mut block = AnswerBlock::new();
        svc.serve_into(view, bound, &mut block).unwrap();
        block.to_tuples()
    }

    #[test]
    fn fan_out_runs_the_first_target_on_the_caller_in_target_order() {
        let caller = std::thread::current().id();
        let ran = fan_out(0..4, |i| (i, std::thread::current().id()));
        let order: Vec<usize> = ran.iter().map(|r| r.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(ran[0].1, caller);
        assert!(ran[1..].iter().all(|r| r.1 != caller));
        // One target spawns nothing; zero targets run nothing.
        assert_eq!(fan_out([7], |_| std::thread::current().id()), vec![caller]);
        let none: Vec<()> = fan_out(0..0, |_| unreachable!("no target"));
        assert!(none.is_empty());
    }

    #[test]
    fn engine_and_sharded_engine_serve_identically() {
        let local = Engine::new(db());
        let sharded = sharded(3);
        let l: &dyn BlockService = &local;
        let s: &dyn BlockService = &sharded;
        assert_eq!(
            l.register_view("tri", QUERY, "bff", "auto").unwrap().len(),
            1
        );
        assert_eq!(
            s.register_view("tri", QUERY, "bff", "auto").unwrap().len(),
            3
        );
        for v in 0..4u64 {
            assert_eq!(collect(l, "tri", &[v]), collect(s, "tri", &[v]));
        }
        // Early stop propagates through the trait object.
        let mut probe = cqc_common::ExistsSink::default();
        let n = s.serve_into("tri", &[1], &mut probe).unwrap();
        assert!(probe.found);
        assert_eq!(n, 1);
    }

    #[test]
    fn updates_advance_version_vectors_in_lockstep() {
        let local = Engine::new(db());
        let sharded = sharded(2);
        let l: &dyn BlockService = &local;
        let s: &dyn BlockService = &sharded;
        l.register_view("tri", QUERY, "bff", "tau:2").unwrap();
        s.register_view("tri", QUERY, "bff", "tau:2").unwrap();
        let mut delta = Delta::new();
        delta.insert("R", vec![3, 3]);
        let lv = l.apply_update(&delta).unwrap();
        let sv = s.apply_update(&delta).unwrap();
        assert_eq!(lv, l.version());
        assert_eq!(sv, s.version());
        assert_eq!(collect(l, "tri", &[3]), collect(s, "tri", &[3]));
    }

    #[test]
    fn preconditioned_update_applies_once_and_only_once() {
        let local = Engine::new(db());
        let svc: &dyn BlockService = &local;
        svc.register_view("tri", QUERY, "bff", "tau:2").unwrap();
        let before = svc.version();
        let mut delta = Delta::new();
        delta.insert("R", vec![3, 3]);
        let after = svc
            .apply_update_preconditioned(&delta, Some(&before))
            .unwrap();
        assert_ne!(after, before);
        // A blind retry of the same delta (the ambiguous-Io scenario) is
        // rejected instead of double-applied…
        let err = svc
            .apply_update_preconditioned(&delta, Some(&before))
            .unwrap_err();
        assert!(
            matches!(
                err,
                cqc_common::CqcError::Protocol {
                    code: cqc_common::frame::code::EPOCH_MISMATCH,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(svc.version(), after, "rejected retry must not apply");
        // …and `None` keeps the unconditioned behavior.
        let mut delta2 = Delta::new();
        delta2.insert("R", vec![4, 4]);
        assert_ne!(
            svc.apply_update_preconditioned(&delta2, None).unwrap(),
            after
        );
    }

    #[test]
    fn serve_cost_tracks_measured_serves() {
        let local = Engine::new(db());
        let svc: &dyn BlockService = &local;
        svc.register_view("tri", QUERY, "bff", "tau:2").unwrap();
        assert_eq!(
            svc.serve_cost_ns("tri"),
            None,
            "unknown before the first measured serve"
        );
        let mut block = AnswerBlock::new();
        svc.serve_into("tri", &[1], &mut block).unwrap();
        let first = svc.serve_cost_ns("tri").expect("cost after one serve");
        assert!(first > 0, "a measured serve has nonzero wall time");
        // Further serves fold in as an EWMA: the estimate stays a
        // plausible per-serve cost, not a running total.
        for v in 0..8u64 {
            block.reset();
            svc.serve_into("tri", &[v], &mut block).unwrap();
        }
        let settled = svc.serve_cost_ns("tri").unwrap();
        assert!(
            settled < first.saturating_mul(1000),
            "EWMA must not accumulate: {first} -> {settled}"
        );
        // Direct EWMA arithmetic: constant samples converge to the
        // sample; the first sample seeds exactly.
        local.record_serve_cost("x", 1000);
        assert_eq!(local.serve_cost_ns("x"), Some(1000));
        for _ in 0..64 {
            local.record_serve_cost("x", 2000);
        }
        let x = local.serve_cost_ns("x").unwrap();
        assert!((1900..=2000).contains(&x), "converge toward samples: {x}");
        // Views the service does not track stay unknown.
        assert_eq!(svc.serve_cost_ns("ghost"), None);
    }

    #[test]
    fn bad_strategy_token_is_a_config_error() {
        let local = Engine::new(db());
        let err = (&local as &dyn BlockService)
            .register_view("v", QUERY, "bff", "nonsense")
            .unwrap_err();
        assert!(matches!(err, cqc_common::CqcError::Config(_)), "{err}");
    }
}
