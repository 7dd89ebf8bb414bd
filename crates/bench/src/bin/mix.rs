//! `mix` — the overload gate: overload robustness, measured.
//!
//! One admission-controlled shard server (2 serve slots, a 2-deep
//! priority queue, 300 ms brownout) has every serve padded to a fixed
//! 10 ms by [`Fault::Slowdown`], so measured capacity is ≈ 200 req/s on
//! any host and the open-loop schedule stays generatable by a small
//! worker pool. Capacity is then measured closed-loop with unbounded
//! Interactive serves, and three open-loop phases replay a
//! Zipf-skewed (s = 1.1) bound distribution at 0.5×/1×/2× that rate
//! with a fixed 70/25/5 Interactive/Batch/Internal class mix, each
//! class carrying its deadline budget (400/1200/800 ms) on the wire.
//! Every worker shares one token-bucket retry budget, and an updater
//! (every 100 ms) plus a health prober (every 20 ms) run throughout —
//! control traffic must never queue behind serves.
//!
//! Gates: nothing hangs and every failure is typed; accepted
//! Interactive p99 at 2× meets its 450 ms SLO; goodput at 2× holds ≥
//! 35% of capacity (no congestion collapse); Batch sheds at least as
//! often as Interactive under overload; retry amplification stays
//! under 2×; and Update/Health see zero failures.
//!
//! The dataset, view and requests are the ones CI has always used
//! (`gen triangle 20000 7`, `path2` = `Q(x,y,z) :- R(x,y), S(y,z)` under
//! `bff`, 200 witness requests, seed 7); the only argument is
//! `--json=<path>`.

use cqc_bench::{harness_main, quantile_ns, Fixture};
use cqc_common::frame::{code, ServePriority};
use cqc_common::measure::{fmt_ns, json_string, write_json_summary};
use cqc_common::{AnswerBlock, CqcError};
use cqc_engine::{BlockService, Engine};
use cqc_net::{
    AdmissionStats, ChaosService, ClientConfig, Deadline, Fault, NetServer, NetServerConfig,
    RetryBudget, RetryBudgetConfig, ShardClient,
};
use cqc_workload::{mixed_delta, view_relations, Zipf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The registered name of the view under test.
const VIEW: &str = "path2";
/// Seeds the update stream and the Zipf schedule.
const SEED: u64 = 7;

fn main() {
    harness_main(|json_path| {
        let fixture = Fixture::triangle(20_000, "Q(x,y,z) :- R(x,y), S(y,z)", "bff", 200)?;
        mix(&fixture, json_path)
    });
}

/// One scheduled arrival in the mixed-workload harness: when it fires
/// relative to the phase start, which bound it asks (Zipf-skewed), and
/// the priority class and deadline budget it carries on the wire.
struct MixArrival {
    offset: Duration,
    bound_idx: usize,
    priority: ServePriority,
    budget: Duration,
}

/// How one open-loop arrival ended (latency in ns). `Refused` and
/// `Expired` are the *typed* shed outcomes the admission controller
/// promises; anything else is `Other` and fails the bench.
#[derive(Clone, Copy)]
enum MixOutcome {
    Accepted(u64),
    Refused(u64),
    Expired(u64),
    Other(u64),
}

/// One phase's per-class ledgers (index: Interactive 0, Batch 1,
/// Internal 2).
#[derive(Default)]
struct MixPhase {
    offered: [u64; 3],
    accepted: [u64; 3],
    refused: [u64; 3],
    expired: [u64; 3],
    other: u64,
    accepted_lat: Vec<u64>,
    interactive_lat: Vec<u64>,
    max_ns: u64,
    elapsed_ns: u64,
}

impl MixPhase {
    fn accepted_total(&self) -> u64 {
        self.accepted.iter().sum()
    }

    fn shed(&self, class: usize) -> u64 {
        self.refused[class] + self.expired[class]
    }
}

fn mix_class(priority: ServePriority) -> usize {
    match priority {
        ServePriority::Interactive => 0,
        ServePriority::Batch => 1,
        ServePriority::Internal => 2,
    }
}

fn mix_client_config(jitter_seed: u64) -> ClientConfig {
    ClientConfig {
        connect_attempts: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        io_timeout: Some(Duration::from_secs(2)),
        refused_retries: 3,
        jitter_seed,
    }
}

/// Replays `arrivals` open-loop against `addr`: `workers` threads pull
/// the next arrival from a shared cursor, sleep until its offset, and
/// fire it with its class and deadline budget on the wire, all sharing
/// one retry budget. Typed sheds return in microseconds, so the pool
/// stays on schedule — the offered load really is open-loop.
fn mix_phase(
    addr: &str,
    view: &str,
    bounds: &[Vec<u64>],
    arrivals: &[MixArrival],
    workers: usize,
    budget: &Arc<RetryBudget>,
) -> Result<MixPhase, String> {
    let next = AtomicUsize::new(0);
    // Workers pre-connect (a health probe) before the clock starts, so
    // connection setup never skews the schedule.
    let start = Instant::now() + Duration::from_millis(60);
    let mut phase = MixPhase::default();
    std::thread::scope(|s| -> Result<(), String> {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let budget = Arc::clone(budget);
            let next = &next;
            handles.push(
                s.spawn(move || -> Result<Vec<(usize, MixOutcome)>, String> {
                    let mut client = ShardClient::new(addr, mix_client_config(100 + w as u64));
                    client.set_retry_budget(Some(budget));
                    client
                        .health()
                        .map_err(|e| format!("mix worker pre-connect: {e}"))?;
                    let mut out = Vec::new();
                    let mut block = AnswerBlock::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(a) = arrivals.get(i) else { break };
                        std::thread::sleep(
                            (start + a.offset).saturating_duration_since(Instant::now()),
                        );
                        block.reset();
                        let t0 = Instant::now();
                        let outcome = match client.serve_with_sink_opts(
                            view,
                            &bounds[a.bound_idx],
                            &mut block,
                            a.priority,
                            Deadline::within(Some(a.budget), Instant::now()),
                        ) {
                            Ok(_) => MixOutcome::Accepted(t0.elapsed().as_nanos() as u64),
                            Err(CqcError::Protocol { code: c, .. }) if c == code::REFUSED => {
                                MixOutcome::Refused(t0.elapsed().as_nanos() as u64)
                            }
                            Err(CqcError::Protocol { code: c, .. }) if c == code::DEADLINE => {
                                MixOutcome::Expired(t0.elapsed().as_nanos() as u64)
                            }
                            Err(_) => MixOutcome::Other(t0.elapsed().as_nanos() as u64),
                        };
                        out.push((i, outcome));
                    }
                    Ok(out)
                }),
            );
        }
        for handle in handles {
            let outcomes = handle
                .join()
                .map_err(|_| "mix worker panicked".to_string())??;
            for (i, outcome) in outcomes {
                let class = mix_class(arrivals[i].priority);
                phase.offered[class] += 1;
                let lat = match outcome {
                    MixOutcome::Accepted(ns) => {
                        phase.accepted[class] += 1;
                        phase.accepted_lat.push(ns);
                        if class == 0 {
                            phase.interactive_lat.push(ns);
                        }
                        ns
                    }
                    MixOutcome::Refused(ns) => {
                        phase.refused[class] += 1;
                        ns
                    }
                    MixOutcome::Expired(ns) => {
                        phase.expired[class] += 1;
                        ns
                    }
                    MixOutcome::Other(ns) => {
                        phase.other += 1;
                        ns
                    }
                };
                phase.max_ns = phase.max_ns.max(lat);
            }
        }
        Ok(())
    })?;
    phase.elapsed_ns = start.elapsed().as_nanos() as u64;
    Ok(phase)
}

fn mix(fixture: &Fixture, json_path: Option<&str>) -> Result<(), String> {
    const WORKERS: usize = 16;
    const PHASE_SPAN: Duration = Duration::from_millis(1200);
    const INTERACTIVE_SLO_NS: u64 = 450_000_000;

    let bounds = &fixture.bounds[..];
    if bounds.is_empty() {
        return Err("mix needs at least one request".into());
    }

    let base_db = &fixture.db;
    let query_text = fixture.view.query().to_string();
    let pattern = fixture.view.pattern();

    let inner = Engine::new(base_db.clone());
    (&inner as &dyn BlockService)
        .register_view(VIEW, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;
    let service = Arc::new(ChaosService::new(Arc::new(inner)));
    service.set_fault(Fault::Slowdown(1));
    let server_config = NetServerConfig {
        max_inflight: 2,
        queue_depth: 2,
        brownout_after: Duration::from_millis(300),
        ..NetServerConfig::default()
    };
    let mut handle = NetServer::spawn(
        Arc::clone(&service) as Arc<dyn BlockService>,
        "127.0.0.1:0",
        server_config,
    )
    .map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();

    // Update stream: deltas precomputed against a shadow database so
    // each one is valid against the state its predecessors left behind.
    let view_relations = view_relations(&fixture.view);
    let mut sim = base_db.clone();
    let mut drng = cqc_workload::rng(SEED.wrapping_add(101));
    let mut deltas = Vec::with_capacity(64);
    for _ in 0..64 {
        let delta = mixed_delta(&mut drng, &sim, &view_relations, 2, 1);
        sim.apply(&delta).map_err(|e| e.to_string())?;
        deltas.push(delta);
    }

    let shared_budget = Arc::new(RetryBudget::new(RetryBudgetConfig {
        earn_pct: 20,
        burst: 20,
    }));
    let stop = AtomicBool::new(false);
    let update_rounds = AtomicU64::new(0);
    let update_failures = AtomicU64::new(0);
    let health_probes = AtomicU64::new(0);
    let health_failures = AtomicU64::new(0);

    type PhaseRow = (&'static str, f64, MixPhase, AdmissionStats, AdmissionStats);
    let measured: Result<(f64, Vec<PhaseRow>), String> = std::thread::scope(|s| {
        // Liveness side traffic across the whole run: updates and health
        // probes bypass admission, so queued serves must never starve
        // or fail them.
        let updater = s.spawn(|| {
            let mut client = ShardClient::new(addr.as_str(), mix_client_config(9));
            let mut k = 0usize;
            while !stop.load(Ordering::SeqCst) {
                match client.update(&deltas[k % deltas.len()], None) {
                    Ok(_) => update_rounds.fetch_add(1, Ordering::Relaxed),
                    Err(_) => update_failures.fetch_add(1, Ordering::Relaxed),
                };
                k += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let prober = s.spawn(|| {
            let mut client = ShardClient::new(addr.as_str(), mix_client_config(11));
            while !stop.load(Ordering::SeqCst) {
                match client.health() {
                    Ok(_) => health_probes.fetch_add(1, Ordering::Relaxed),
                    Err(_) => health_failures.fetch_add(1, Ordering::Relaxed),
                };
                std::thread::sleep(Duration::from_millis(20));
            }
        });

        let work = (|| -> Result<(f64, Vec<PhaseRow>), String> {
            // Capacity: closed-loop with unbounded Interactive serves
            // (3 workers > 2 slots saturates the server without
            // overflowing its 2-deep queue).
            let completions = AtomicU64::new(0);
            let t0 = Instant::now();
            let span = Duration::from_millis(600);
            std::thread::scope(|cs| -> Result<(), String> {
                let mut hs = Vec::new();
                for w in 0..3usize {
                    let completions = &completions;
                    let addr = addr.as_str();
                    hs.push(cs.spawn(move || -> Result<(), String> {
                        let mut client = ShardClient::new(addr, mix_client_config(50 + w as u64));
                        let mut block = AnswerBlock::new();
                        let mut i = w;
                        while t0.elapsed() < span {
                            block.reset();
                            client
                                .serve_with_sink(VIEW, &bounds[i % bounds.len()], &mut block)
                                .map_err(|e| format!("capacity serve: {e}"))?;
                            completions.fetch_add(1, Ordering::Relaxed);
                            i += 3;
                        }
                        Ok(())
                    }));
                }
                for h in hs {
                    h.join()
                        .map_err(|_| "capacity worker panicked".to_string())??;
                }
                Ok(())
            })?;
            let capacity = completions.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64();
            if capacity < 10.0 {
                return Err(format!("implausible measured capacity {capacity:.1} req/s"));
            }

            // The open-loop schedules: Zipf-skewed bounds, deterministic
            // 70/25/5 class mix with per-class deadline budgets.
            let zipf = Zipf::new(bounds.len(), 1.1);
            let mut zrng = cqc_workload::rng(SEED.wrapping_add(7));
            let mut schedule = |rate_per_s: f64| -> Vec<MixArrival> {
                let n = ((rate_per_s * PHASE_SPAN.as_secs_f64()) as usize).max(24);
                let spacing = PHASE_SPAN.as_secs_f64() / n as f64;
                (0..n)
                    .map(|i| {
                        let (priority, budget) = match i % 20 {
                            0..=13 => (ServePriority::Interactive, Duration::from_millis(400)),
                            14..=18 => (ServePriority::Batch, Duration::from_millis(1200)),
                            _ => (ServePriority::Internal, Duration::from_millis(800)),
                        };
                        MixArrival {
                            offset: Duration::from_secs_f64(i as f64 * spacing),
                            bound_idx: zipf.sample(&mut zrng) as usize,
                            priority,
                            budget,
                        }
                    })
                    .collect()
            };

            let mut rows: Vec<PhaseRow> = Vec::new();
            for (tag, mult) in [("half", 0.5f64), ("one", 1.0), ("two", 2.0)] {
                let rate = capacity * mult;
                let arrivals = schedule(rate);
                let before = handle.admission_stats();
                let phase = mix_phase(&addr, VIEW, bounds, &arrivals, WORKERS, &shared_budget)?;
                let after = handle.admission_stats();
                rows.push((tag, rate, phase, before, after));
                // Drain the queue and unlatch any brownout before the
                // next phase changes the offered rate.
                std::thread::sleep(Duration::from_millis(150));
            }
            Ok((capacity, rows))
        })();
        stop.store(true, Ordering::SeqCst);
        let _ = updater.join();
        let _ = prober.join();
        work
    });
    let (capacity, rows) = measured?;

    // The verdicts.
    let offered_total: u64 = rows.iter().map(|r| r.2.offered.iter().sum::<u64>()).sum();
    let other_total: u64 = rows.iter().map(|r| r.2.other).sum();
    let max_request_ns = rows.iter().map(|r| r.2.max_ns).max().unwrap_or(0);
    let spent = shared_budget.spent();
    let denied = shared_budget.denied();
    let amplification = (offered_total + spent) as f64 / offered_total.max(1) as f64;
    let amplification_ok = amplification < 2.0;
    // Every shed is a typed REFUSED/DEADLINE in microseconds; a request
    // past 5 s (budgets top out at 1.2 s) escaped deadline accounting.
    let no_hung_requests = max_request_ns < 5_000_000_000 && other_total == 0;

    let two = &rows[2].2;
    let mut two_interactive = two.interactive_lat.clone();
    let two_interactive_p99 = quantile_ns(&mut two_interactive, 99, 100);
    let interactive_p99_ok = two.accepted[0] > 0 && two_interactive_p99 <= INTERACTIVE_SLO_NS;
    let two_goodput = two.accepted_total() as f64 / (two.elapsed_ns.max(1) as f64 / 1e9);
    let goodput_ok = two_goodput >= 0.35 * capacity;
    let interactive_shed_frac = two.shed(0) as f64 / two.offered[0].max(1) as f64;
    let batch_shed_frac = two.shed(1) as f64 / two.offered[1].max(1) as f64;
    let shed_fairness_ok = batch_shed_frac + 1e-9 >= interactive_shed_frac;
    let rounds = update_rounds.load(Ordering::Relaxed);
    let probes = health_probes.load(Ordering::Relaxed);
    let upd_failures = update_failures.load(Ordering::Relaxed);
    let hp_failures = health_failures.load(Ordering::Relaxed);
    let liveness_ok = upd_failures == 0 && hp_failures == 0 && rounds > 0 && probes > 0;
    let admission = handle.admission_stats();

    println!(
        "mix `{VIEW}`: capacity {capacity:.0} req/s (closed-loop, 10 ms padded serves), \
         protocol v{}",
        cqc_common::frame::PROTOCOL_VERSION
    );
    for (tag, rate, phase, before, after) in &rows {
        let mut lat = phase.accepted_lat.clone();
        let p50 = quantile_ns(&mut lat, 50, 100);
        let p99 = quantile_ns(&mut lat, 99, 100);
        let offered: u64 = phase.offered.iter().sum();
        println!(
            "  {tag}x ({rate:.0}/s): {}/{} accepted ({:.0}/s goodput), p50 {} p99 {}, shed \
             I/B/N {}+{}+{} (server: {} queue-full, {} brownout, {} expired)",
            phase.accepted_total(),
            offered,
            phase.accepted_total() as f64 / (phase.elapsed_ns.max(1) as f64 / 1e9),
            fmt_ns(p50),
            fmt_ns(p99),
            phase.shed(0),
            phase.shed(1),
            phase.shed(2),
            after.shed_queue_full - before.shed_queue_full,
            after.shed_brownout - before.shed_brownout,
            after.shed_expired - before.shed_expired,
        );
    }
    println!(
        "  2x SLO: accepted Interactive p99 {} (≤ 450 ms: {interactive_p99_ok}), goodput \
         {two_goodput:.0}/s (≥ 35% of capacity: {goodput_ok}), shed fraction I {:.2} vs B {:.2} \
         (fair: {shed_fairness_ok})",
        fmt_ns(two_interactive_p99),
        interactive_shed_frac,
        batch_shed_frac
    );
    println!(
        "  retry budget: {spent} spent / {denied} denied — amplification {amplification:.2}x \
         (< 2x: {amplification_ok})"
    );
    println!(
        "  liveness: {rounds} updates ({upd_failures} failed), {probes} health probes \
         ({hp_failures} failed), {} brownouts, max request {}",
        admission.brownouts,
        fmt_ns(max_request_ns)
    );

    if let Some(path) = json_path {
        let mut fields = vec![
            format!("\"view\": {}", json_string(VIEW)),
            "\"profile\": \"mix\"".to_string(),
            format!(
                "\"protocol_version\": {}",
                cqc_common::frame::PROTOCOL_VERSION
            ),
            format!("\"capacity_per_s\": {capacity:.2}"),
            format!("\"workers\": {WORKERS}"),
            format!("\"offered_total\": {offered_total}"),
        ];
        for (tag, rate, phase, before, after) in &rows {
            let mut lat = phase.accepted_lat.clone();
            let p50 = quantile_ns(&mut lat, 50, 100);
            let p99 = quantile_ns(&mut lat, 99, 100);
            let p999 = quantile_ns(&mut lat, 999, 1000);
            let goodput = phase.accepted_total() as f64 / (phase.elapsed_ns.max(1) as f64 / 1e9);
            fields.extend([
                format!("\"{tag}_rate_per_s\": {rate:.2}"),
                format!("\"{tag}_offered\": {}", phase.offered.iter().sum::<u64>()),
                format!("\"{tag}_goodput_per_s\": {goodput:.2}"),
                format!("\"{tag}_accepted_p50_ns\": {p50}"),
                format!("\"{tag}_accepted_p99_ns\": {p99}"),
                format!("\"{tag}_accepted_p999_ns\": {p999}"),
                format!("\"{tag}_accepted_interactive\": {}", phase.accepted[0]),
                format!("\"{tag}_accepted_batch\": {}", phase.accepted[1]),
                format!("\"{tag}_accepted_internal\": {}", phase.accepted[2]),
                format!("\"{tag}_shed_interactive\": {}", phase.shed(0)),
                format!("\"{tag}_shed_batch\": {}", phase.shed(1)),
                format!("\"{tag}_shed_internal\": {}", phase.shed(2)),
                format!(
                    "\"{tag}_server_shed_queue_full\": {}",
                    after.shed_queue_full - before.shed_queue_full
                ),
                format!(
                    "\"{tag}_server_shed_brownout\": {}",
                    after.shed_brownout - before.shed_brownout
                ),
                format!(
                    "\"{tag}_server_shed_expired\": {}",
                    after.shed_expired - before.shed_expired
                ),
            ]);
        }
        fields.extend([
            format!("\"server_admitted\": {}", admission.admitted),
            format!(
                "\"server_shed_interactive\": {}",
                admission.shed_interactive
            ),
            format!("\"server_shed_batch\": {}", admission.shed_batch),
            format!("\"server_shed_internal\": {}", admission.shed_internal),
            format!("\"server_brownouts\": {}", admission.brownouts),
            format!("\"budget_spent\": {spent}"),
            format!("\"budget_denied\": {denied}"),
            format!("\"amplification\": {amplification:.3}"),
            format!("\"two_interactive_p99_ns\": {two_interactive_p99}"),
            format!("\"max_request_ns\": {max_request_ns}"),
            format!("\"update_rounds\": {rounds}"),
            format!("\"update_failures\": {upd_failures}"),
            format!("\"health_probes\": {probes}"),
            format!("\"health_failures\": {hp_failures}"),
            format!("\"no_hung_requests\": {no_hung_requests}"),
            format!("\"interactive_p99_ok\": {interactive_p99_ok}"),
            format!("\"goodput_ok\": {goodput_ok}"),
            format!("\"shed_fairness_ok\": {shed_fairness_ok}"),
            format!("\"amplification_ok\": {amplification_ok}"),
            format!("\"liveness_ok\": {liveness_ok}"),
        ]);
        write_json_summary(path, &fields)?;
    }

    handle.shutdown();

    if !no_hung_requests {
        return Err(format!(
            "mix self-check failed: max request {} with {other_total} untyped \
             failures — every outcome must be fast or a typed shed",
            fmt_ns(max_request_ns)
        ));
    }
    if !interactive_p99_ok {
        return Err(format!(
            "mix self-check failed: accepted Interactive p99 {} at 2x capacity \
             blew the 450 ms SLO",
            fmt_ns(two_interactive_p99)
        ));
    }
    if !goodput_ok {
        return Err(format!(
            "mix self-check failed: goodput {two_goodput:.0}/s at 2x offered load \
             fell below 35% of the {capacity:.0}/s capacity (congestion collapse)"
        ));
    }
    if !shed_fairness_ok {
        return Err(format!(
            "mix self-check failed: Interactive shed fraction \
             {interactive_shed_frac:.2} exceeded Batch's {batch_shed_frac:.2} under overload"
        ));
    }
    if !amplification_ok {
        return Err(format!(
            "mix self-check failed: retry amplification {amplification:.2}x \
             (≥ 2x) — the retry budget failed to bound retry traffic"
        ));
    }
    if !liveness_ok {
        return Err(format!(
            "mix self-check failed: control-plane liveness ({rounds} updates, \
             {upd_failures} failed; {probes} health probes, {hp_failures} failed)"
        ));
    }
    Ok(())
}
