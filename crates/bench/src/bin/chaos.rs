//! `chaos` — the fault-tolerance gate: a 2-shard × 2-replica loopback fleet
//! driven through a scripted fault schedule, with every answer stream
//! checked against in-process oracles.
//!
//! The schedule, in order:
//!
//! 1. **baseline** — no faults; every serve must be exact.
//! 2. **soft faults** — each fault type in turn on replica 0 of *every*
//!    shard (stall past the socket timeout, typed refusal, an epoch lie,
//!    death mid-stream after a flushed chunk): the failover machinery
//!    must keep every serve exact via replica 1, exercising hedged
//!    requests, breaker trips, stale skips, and verified prefix resumes.
//! 3. **hard kill** — replica 0 of every shard is really shut down:
//!    serves stay exact, and the dead replicas' breakers open so later
//!    requests stop paying for dead connects.
//! 4. **update under failure** — one mixed insert/delete delta goes
//!    through the router while replica 0 is down: it lands on the
//!    surviving replicas (preconditioned on the epoch vector), and the
//!    oracles apply the same delta.
//! 5. **whole-group outage** — shard 1's last replica is killed too:
//!    strict serves fail with a *typed* error, and
//!    [`ServeMode::DegradedOk`] serves return exactly shard 0's slice of
//!    the answers with a `1/2` coverage bitmap and a typed
//!    [`cqc_common::frame::code::DEGRADED`] indication.
//! 6. **revival** — dead replicas are re-synced (the delta they missed is
//!    applied directly — the operator-resync path), their servers respawn
//!    on the original ports, `health_check` re-admits them, their
//!    breakers close through the half-open probe, and serves are exact
//!    again on the updated database.
//!
//! Availability over the exact phases (1–4, 6) must be 100% — each shard
//! always kept one live replica. No request may ever exceed the retry
//! policy's deadline by more than scheduling noise.
//!
//! The dataset, view and requests are the ones CI has always used
//! (`gen triangle 20000 7`, `path2` = `Q(x,y,z) :- R(x,y), S(y,z)` under
//! `bff`, 200 witness requests); the only argument is `--json=<path>`.

use cqc_bench::{harness_main, quantile_ns, Fixture};
use cqc_common::frame::code;
use cqc_common::measure::{fmt_ns, json_string, write_json_summary};
use cqc_common::{AnswerBlock, CqcError};
use cqc_engine::{BlockService, Engine};
use cqc_net::{
    BreakerConfig, ChaosService, ClientConfig, Fault, NetServer, NetServerConfig,
    RetryBudgetConfig, RetryPolicy, Router, ServeMode, ServeOpts, ServerHandle,
};
use cqc_storage::Partitioning;
use cqc_workload::{mixed_delta, view_relations};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The registered name of the view under test.
const VIEW: &str = "path2";

fn main() {
    harness_main(|json_path| {
        let fixture = Fixture::triangle(20_000, "Q(x,y,z) :- R(x,y), S(y,z)", "bff", 200)?;
        chaos(&fixture, json_path)
    });
}

/// One chaos phase's ledger: how many requests ran, how many came back
/// exact (tuple-for-tuple equal to the oracle), and their latencies.
#[derive(Debug, Default)]
struct ChaosPhase {
    attempted: u64,
    exact: u64,
    lat_ns: Vec<u64>,
    last_miss: Option<String>,
}

impl ChaosPhase {
    fn absorb(&mut self, other: ChaosPhase) {
        self.attempted += other.attempted;
        self.exact += other.exact;
        self.lat_ns.extend(other.lat_ns);
        if other.last_miss.is_some() {
            self.last_miss = other.last_miss;
        }
    }
}

/// Serves `n` requests (cycling through `bounds` from `*cursor`) through
/// the router and compares every merged stream tuple-for-tuple against
/// the in-process oracle. Router failures and divergent streams count as
/// availability misses, not hard errors — the chaos gate judges the
/// totals.
fn chaos_exact_phase(
    router: &Router,
    oracle: &dyn BlockService,
    view: &str,
    bounds: &[Vec<u64>],
    cursor: &mut usize,
    n: usize,
) -> Result<ChaosPhase, String> {
    let mut phase = ChaosPhase::default();
    let mut want = AnswerBlock::new();
    let mut got = AnswerBlock::new();
    for _ in 0..n {
        let bound = &bounds[*cursor % bounds.len()];
        *cursor += 1;
        want.reset();
        oracle
            .serve_into(view, bound, &mut want)
            .map_err(|e| format!("chaos oracle serve: {e}"))?;
        got.reset();
        let t0 = Instant::now();
        let outcome = router.serve_into(view, bound, &mut got);
        phase.lat_ns.push(t0.elapsed().as_nanos() as u64);
        phase.attempted += 1;
        match outcome {
            Ok(_) if got.values() == want.values() => phase.exact += 1,
            Ok(n) => {
                phase.last_miss = Some(format!(
                    "stream diverged from the oracle ({n} answers served, {} expected)",
                    want.len()
                ));
            }
            Err(e) => phase.last_miss = Some(format!("serve failed: {e}")),
        }
    }
    Ok(phase)
}

/// Respawns a killed shard server on its original address (bounded
/// retries — the OS may need a moment to release the port).
fn respawn(
    service: Arc<dyn BlockService>,
    addr: &str,
    config: NetServerConfig,
) -> Result<ServerHandle, String> {
    let mut last = String::new();
    for _ in 0..40 {
        match NetServer::spawn(Arc::clone(&service), addr, config) {
            Ok(handle) => return Ok(handle),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(format!("could not respawn shard server on {addr}: {last}"))
}

fn chaos(fixture: &Fixture, json_path: Option<&str>) -> Result<(), String> {
    const SHARDS: usize = 2;
    const REPLICAS: usize = 2;

    let base_db = &fixture.db;
    let bounds = &fixture.bounds[..];
    let query_text = fixture.view.query().to_string();
    let pattern = fixture.view.pattern();
    let spec = cqc_engine::spec_for_view(&fixture.view, base_db);
    let part = Partitioning::new(spec.clone(), SHARDS).map_err(|e| e.to_string())?;
    let slices = part.split_database(base_db).map_err(|e| e.to_string())?;

    // In-process oracles: the full database (exact phases) and shard 0's
    // slice alone (the degraded phase's expected answer stream).
    let oracle = Engine::new(base_db.clone());
    (&oracle as &dyn BlockService)
        .register_view(VIEW, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;
    let shard0_oracle = Engine::new(slices[0].clone());
    (&shard0_oracle as &dyn BlockService)
        .register_view(VIEW, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;

    // The fleet: per shard, R chaos-wrapped engines over identical copies
    // of that shard's slice. Small chunks so a mid-stream death leaves a
    // flushed prefix on the wire (the resume path needs one).
    let server_config = NetServerConfig {
        chunk_tuples: 8,
        ..NetServerConfig::default()
    };
    let mut services: Vec<Vec<Arc<ChaosService>>> = Vec::with_capacity(SHARDS);
    let mut servers: Vec<Vec<Option<ServerHandle>>> = Vec::with_capacity(SHARDS);
    let mut group_addrs: Vec<Vec<String>> = Vec::with_capacity(SHARDS);
    for slice in &slices {
        let mut row_services = Vec::with_capacity(REPLICAS);
        let mut row_servers = Vec::with_capacity(REPLICAS);
        let mut row_addrs = Vec::with_capacity(REPLICAS);
        for _ in 0..REPLICAS {
            let service = Arc::new(ChaosService::new(Arc::new(Engine::new(slice.clone()))));
            let handle = NetServer::spawn(
                Arc::clone(&service) as Arc<dyn BlockService>,
                "127.0.0.1:0",
                server_config,
            )
            .map_err(|e| e.to_string())?;
            row_addrs.push(handle.addr().to_string());
            row_services.push(service);
            row_servers.push(Some(handle));
        }
        services.push(row_services);
        servers.push(row_servers);
        group_addrs.push(row_addrs);
    }

    // Fail-fast timings so the schedule runs in seconds: a stalled
    // replica burns one 300 ms socket timeout, not a 30 s default.
    let client_config = ClientConfig {
        connect_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        io_timeout: Some(Duration::from_millis(300)),
        refused_retries: 0,
        jitter_seed: 42,
    };
    let breaker_config = BreakerConfig {
        consecutive_failures: 3,
        window: 8,
        error_rate_pct: 50,
        cooldown: Duration::from_millis(300),
        half_open_successes: 1,
    };
    let policy = RetryPolicy {
        attempts: 4,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        request_deadline: Some(Duration::from_secs(2)),
        hedge_after: Some(Duration::from_millis(150)),
        retry_budget: RetryBudgetConfig {
            earn_pct: 20,
            burst: 32,
        },
    };
    let router =
        Router::connect_replicated(&group_addrs, spec, client_config, breaker_config, policy)
            .map_err(|e| e.to_string())?;
    router
        .register_view(VIEW, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;

    let mut cursor = 0usize;
    let mut exact_total = ChaosPhase::default();
    let mut failover_lat: Vec<u64> = Vec::new();
    let mut all_lat: Vec<u64> = Vec::new();

    // Phase 1: baseline — the healthy fleet serves exactly.
    let baseline = chaos_exact_phase(&router, &oracle, VIEW, bounds, &mut cursor, 10)?;
    all_lat.extend(&baseline.lat_ns);
    exact_total.absorb(baseline);

    // Phase 2: soft faults on replica 0 of every shard, one type at a
    // time; a cooldown-length pause between types lets the breakers
    // half-open so the next fault type is actually probed.
    let soft_faults = [
        Fault::Stall(Duration::from_millis(600)),
        Fault::Refuse,
        Fault::WrongEpoch(3),
        Fault::DieMidStream(10),
    ];
    for fault in soft_faults {
        for row in &services {
            row[0].set_fault(fault);
        }
        let phase = chaos_exact_phase(&router, &oracle, VIEW, bounds, &mut cursor, 5)?;
        failover_lat.extend(&phase.lat_ns);
        all_lat.extend(&phase.lat_ns);
        exact_total.absorb(phase);
        for row in &services {
            row[0].set_fault(Fault::None);
        }
        std::thread::sleep(breaker_config.cooldown + Duration::from_millis(50));
    }

    // Phase 2b: a slow-but-alive replica. Replica 0 of every shard
    // serves correctly but 250 ms late — past hedge_after (150 ms) yet
    // inside the 300 ms socket timeout, so nothing errors and breakers
    // never open. Only budget-funded hedges keep the fleet's tail under
    // the slow replica's latency.
    let before_slow = router.fleet_stats();
    for row in &services {
        row[0].set_fault(Fault::Slowdown(25));
    }
    let slow = chaos_exact_phase(&router, &oracle, VIEW, bounds, &mut cursor, 8)?;
    for row in &services {
        row[0].set_fault(Fault::None);
    }
    let after_slow = router.fleet_stats();
    let mut slow_lat = slow.lat_ns.clone();
    all_lat.extend(&slow.lat_ns);
    exact_total.absorb(slow);
    let slow_p99_ns = quantile_ns(&mut slow_lat, 99, 100);
    let slow_hedges = after_slow.groups.hedges - before_slow.groups.hedges;
    let slow_budget_spent = after_slow.groups.budget_spent - before_slow.groups.budget_spent;
    // Bounded tail: hedges fire at 150 ms and the healthy sibling
    // answers in microseconds, so p99 must land well under the 250 ms
    // the slow replica would have cost — and every hedge was a budget
    // token, so spends must cover the hedge count.
    let slow_replica_ok =
        slow_p99_ns < 200_000_000 && slow_hedges > 0 && slow_budget_spent >= slow_hedges;
    std::thread::sleep(breaker_config.cooldown + Duration::from_millis(50));

    // Phase 3: really kill replica 0 of every shard.
    for row in &mut servers {
        if let Some(mut handle) = row[0].take() {
            handle.shutdown();
        }
    }
    let killed = chaos_exact_phase(&router, &oracle, VIEW, bounds, &mut cursor, 10)?;
    failover_lat.extend(&killed.lat_ns);
    all_lat.extend(&killed.lat_ns);
    exact_total.absorb(killed);

    // Phase 4: one mixed delta through the router while replica 0 is
    // down — it lands on the survivors under the epoch precondition; the
    // dead replicas will need the operator re-sync below.
    let view_relations = view_relations(&fixture.view);
    let mut rng = cqc_workload::rng(23);
    let delta = mixed_delta(&mut rng, base_db, &view_relations, 3, 2);
    let sub = part.split_delta(&delta).map_err(|e| e.to_string())?;
    router.apply_update(&delta).map_err(|e| e.to_string())?;
    (&oracle as &dyn BlockService)
        .apply_update(&delta)
        .map_err(|e| e.to_string())?;
    if !sub[0].is_empty() {
        (&shard0_oracle as &dyn BlockService)
            .apply_update(&sub[0])
            .map_err(|e| e.to_string())?;
    }
    let updated = chaos_exact_phase(&router, &oracle, VIEW, bounds, &mut cursor, 6)?;
    all_lat.extend(&updated.lat_ns);
    exact_total.absorb(updated);

    // Phase 5: whole-group outage — shard 1 loses its last replica.
    if let Some(mut handle) = servers[1][1].take() {
        handle.shutdown();
    }
    let mut strict_block = AnswerBlock::new();
    let strict_bound = &bounds[cursor % bounds.len()];
    let t0 = Instant::now();
    let strict_outcome = router.serve_into(VIEW, strict_bound, &mut strict_block);
    all_lat.push(t0.elapsed().as_nanos() as u64);
    let strict_typed = match strict_outcome {
        Err(CqcError::Protocol { .. }) => true,
        Err(_) | Ok(_) => false,
    };
    let degraded_ok = ServeOpts {
        mode: ServeMode::DegradedOk,
        ..ServeOpts::default()
    };
    let mut degraded_attempted = 0u64;
    let mut degraded_exact = 0u64;
    let mut want = AnswerBlock::new();
    let mut got = AnswerBlock::new();
    for _ in 0..5 {
        let bound = &bounds[cursor % bounds.len()];
        cursor += 1;
        want.reset();
        (&shard0_oracle as &dyn BlockService)
            .serve_into(VIEW, bound, &mut want)
            .map_err(|e| e.to_string())?;
        got.reset();
        let t0 = Instant::now();
        let report = router
            .serve(VIEW, bound, &mut got, &degraded_ok)
            .map_err(|e| e.to_string())?;
        all_lat.push(t0.elapsed().as_nanos() as u64);
        degraded_attempted += 1;
        let degraded_error_typed = report.degraded_error().is_some_and(|e| {
            matches!(
                e,
                CqcError::Protocol {
                    code: code::DEGRADED,
                    ..
                }
            )
        });
        if report.is_degraded()
            && report.coverage.missing() == vec![1]
            && degraded_error_typed
            && got.values() == want.values()
        {
            degraded_exact += 1;
        }
    }
    let degraded_ok =
        strict_typed && degraded_attempted > 0 && degraded_exact == degraded_attempted;

    // Phase 6: revival — re-sync the delta the dead replicas missed (the
    // operator path: directly into their engines), respawn on the
    // original ports, re-admit via health_check, serve exactly again.
    let dead = [(0usize, 0usize), (1, 0), (1, 1)];
    for &(s, r) in &dead {
        if !sub[s].is_empty() && (s, r) != (1, 1) {
            // (1,1) was alive for the update; re-applying would fork it.
            services[s][r]
                .apply_update(&sub[s])
                .map_err(|e| e.to_string())?;
        }
        let service = Arc::clone(&services[s][r]) as Arc<dyn BlockService>;
        servers[s][r] = Some(respawn(service, &group_addrs[s][r], server_config)?);
    }
    std::thread::sleep(breaker_config.cooldown + Duration::from_millis(50));
    router.health_check().map_err(|e| e.to_string())?;
    let revived = chaos_exact_phase(&router, &oracle, VIEW, bounds, &mut cursor, 10)?;
    all_lat.extend(&revived.lat_ns);
    exact_total.absorb(revived);

    // The verdicts.
    let availability_pct = exact_total.exact as f64 * 100.0 / exact_total.attempted.max(1) as f64;
    let availability_ok = exact_total.attempted > 0 && exact_total.exact == exact_total.attempted;
    // Deadline is 2 s; anything past 3 s means a wait escaped the
    // deadline accounting (1 s of grace for scheduling noise).
    let max_request_ns = all_lat.iter().copied().max().unwrap_or(0);
    let no_hung_requests = max_request_ns < 3_000_000_000;
    let fleet = router.fleet_stats();
    let breaker_cycled = fleet.breakers.opened >= 2 && fleet.breakers.closed >= 2;
    let failover_p50 = quantile_ns(&mut failover_lat, 50, 100);
    let failover_p99 = quantile_ns(&mut failover_lat, 99, 100);

    println!(
        "chaos `{VIEW}`: {SHARDS} shards x {REPLICAS} replicas, {} exact-phase requests, \
         protocol v{}",
        exact_total.attempted,
        cqc_common::frame::PROTOCOL_VERSION
    );
    println!(
        "  availability: {availability_pct:.1}% ({} / {} exact){}",
        exact_total.exact,
        exact_total.attempted,
        exact_total
            .last_miss
            .as_deref()
            .map(|m| format!(" — last miss: {m}"))
            .unwrap_or_default()
    );
    println!(
        "  failover latency: p50 {} | p99 {} | max request {}",
        fmt_ns(failover_p50),
        fmt_ns(failover_p99),
        fmt_ns(max_request_ns)
    );
    println!(
        "  fleet: {} failovers, {} stale skips, {} prefix resumes, {} hedges ({} won), \
         {} update failures, retry budget {} spent / {} denied",
        fleet.groups.failovers,
        fleet.groups.stale_skips,
        fleet.groups.prefix_resumes,
        fleet.groups.hedges,
        fleet.groups.hedge_wins,
        fleet.groups.update_failures,
        fleet.groups.budget_spent,
        fleet.groups.budget_denied
    );
    println!(
        "  slow replica: p99 {} with {slow_hedges} hedges ({slow_budget_spent} budget-funded) \
         against a 250 ms slowdown (ok: {slow_replica_ok})",
        fmt_ns(slow_p99_ns)
    );
    println!(
        "  breakers: {} opened, {} half-opened, {} closed (cycled: {breaker_cycled})",
        fleet.breakers.opened, fleet.breakers.half_opened, fleet.breakers.closed
    );
    println!(
        "  degraded: strict outage typed: {strict_typed}; {degraded_exact}/{degraded_attempted} \
         degraded serves matched shard 0's slice with a 1/2 coverage bitmap"
    );

    if let Some(path) = json_path {
        let fields = [
            format!("\"view\": {}", json_string(VIEW)),
            "\"profile\": \"chaos\"".to_string(),
            format!(
                "\"protocol_version\": {}",
                cqc_common::frame::PROTOCOL_VERSION
            ),
            format!("\"shards\": {SHARDS}"),
            format!("\"replicas\": {REPLICAS}"),
            format!("\"exact_requests\": {}", exact_total.attempted),
            format!("\"exact_served\": {}", exact_total.exact),
            format!("\"availability_pct\": {availability_pct:.2}"),
            format!("\"availability_ok\": {availability_ok}"),
            format!("\"failover_p50_ns\": {failover_p50}"),
            format!("\"failover_p99_ns\": {failover_p99}"),
            format!("\"max_request_ns\": {max_request_ns}"),
            format!("\"no_hung_requests\": {no_hung_requests}"),
            format!("\"failovers\": {}", fleet.groups.failovers),
            format!("\"stale_skips\": {}", fleet.groups.stale_skips),
            format!("\"prefix_resumes\": {}", fleet.groups.prefix_resumes),
            format!("\"hedges\": {}", fleet.groups.hedges),
            format!("\"hedge_wins\": {}", fleet.groups.hedge_wins),
            format!("\"update_failures\": {}", fleet.groups.update_failures),
            format!("\"budget_spent\": {}", fleet.groups.budget_spent),
            format!("\"budget_denied\": {}", fleet.groups.budget_denied),
            format!("\"slow_p99_ns\": {slow_p99_ns}"),
            format!("\"slow_hedges\": {slow_hedges}"),
            format!("\"slow_replica_ok\": {slow_replica_ok}"),
            format!("\"breaker_opened\": {}", fleet.breakers.opened),
            format!("\"breaker_half_opened\": {}", fleet.breakers.half_opened),
            format!("\"breaker_closed\": {}", fleet.breakers.closed),
            format!("\"breaker_cycled\": {breaker_cycled}"),
            format!("\"strict_outage_typed\": {strict_typed}"),
            format!("\"degraded_serves\": {degraded_attempted}"),
            format!("\"degraded_exact\": {degraded_exact}"),
            format!("\"degraded_ok\": {degraded_ok}"),
        ];
        write_json_summary(path, &fields)?;
    }

    for row in &mut servers {
        for slot in row.iter_mut() {
            if let Some(mut handle) = slot.take() {
                handle.shutdown();
            }
        }
    }
    if !availability_ok {
        return Err(format!(
            "chaos self-check failed: availability {availability_pct:.1}% \
             (every shard kept a live replica; 100% exact serves were required){}",
            exact_total
                .last_miss
                .map(|m| format!(" — last miss: {m}"))
                .unwrap_or_default()
        ));
    }
    if !degraded_ok {
        return Err(format!(
            "chaos self-check failed: degraded mode (strict typed: {strict_typed}, \
             exact degraded serves: {degraded_exact}/{degraded_attempted})"
        ));
    }
    if !no_hung_requests {
        return Err(format!(
            "chaos self-check failed: a request ran {} — past the deadline budget",
            fmt_ns(max_request_ns)
        ));
    }
    if !slow_replica_ok {
        return Err(format!(
            "chaos self-check failed: slow-replica phase p99 {} with {slow_hedges} \
             hedges ({slow_budget_spent} budget-funded) — hedging under a retry budget must \
             keep the tail below the 250 ms slowdown",
            fmt_ns(slow_p99_ns)
        ));
    }
    Ok(())
}
