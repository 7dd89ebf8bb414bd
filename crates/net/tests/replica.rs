//! Replica-group acceptance: the fault-tolerance contracts, end to end.
//!
//! * R = 2 replication: killing one replica per shard must leave every
//!   serve exact (tuple-for-tuple against an in-process oracle), and
//!   killing a whole group must produce a *typed* strict failure and a
//!   correct coverage bitmap in degraded mode — never a silent partial
//!   answer.
//! * Connecting reports every unreachable address in one error, so a
//!   multi-replica outage is diagnosed in one attempt.
//! * A retried update under an epoch-vector precondition applies exactly
//!   once even when the first attempt's transport dies after the apply —
//!   the ambiguous-I/O reconciliation pinned against a scripted shard.

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cqc_common::frame::{self, code, FrameKind, FrameReader, PayloadWriter};
use cqc_common::{AnswerBlock, CqcError};
use cqc_engine::{spec_for_view, BlockService, Engine};
use cqc_net::{
    protocol, BreakerConfig, ClientConfig, NetServer, NetServerConfig, ReplicaGroup, RetryPolicy,
    Router, ServeMode, ServeOpts,
};
use cqc_storage::{Database, Delta, PartitionSpec, Partitioning};

const QUERY: &str = "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)";
const SHARDS: usize = 2;
const REPLICAS: usize = 2;

fn triangle_db(seed: u64) -> Database {
    let mut rng = cqc_workload::rng(seed);
    let mut db = Database::new();
    for name in ["R", "S", "T"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 120, 12))
            .unwrap();
    }
    db
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        io_timeout: Some(Duration::from_millis(500)),
        refused_retries: 0,
        jitter_seed: 7,
    }
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        request_deadline: Some(Duration::from_secs(5)),
        hedge_after: None,
        ..RetryPolicy::default()
    }
}

/// Kills one replica per shard, then the whole of shard 1: serves must
/// stay exact while each shard keeps a live replica, then fail typed
/// (strict) or report the missing shard honestly (degraded).
#[test]
fn replicated_fleet_survives_kills_and_degrades_typed() {
    let db = triangle_db(11);
    let view = cqc_query::parser::parse_adorned(QUERY, "fff").unwrap();
    let spec = spec_for_view(&view, &db);
    let part = Partitioning::new(spec.clone(), SHARDS).unwrap();
    let slices = part.split_database(&db).unwrap();

    let oracle = Engine::new(db.clone());
    (&oracle as &dyn BlockService)
        .register_view("v", QUERY, "fff", "auto")
        .unwrap();
    let shard0_oracle = Engine::new(slices[0].clone());
    (&shard0_oracle as &dyn BlockService)
        .register_view("v", QUERY, "fff", "auto")
        .unwrap();

    let mut servers: Vec<Vec<Option<_>>> = Vec::new();
    let mut groups: Vec<Vec<String>> = Vec::new();
    for slice in &slices {
        let mut row = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..REPLICAS {
            let handle = NetServer::spawn(
                Arc::new(Engine::new(slice.clone())),
                "127.0.0.1:0",
                NetServerConfig::default(),
            )
            .unwrap();
            addrs.push(handle.addr().to_string());
            row.push(Some(handle));
        }
        servers.push(row);
        groups.push(addrs);
    }
    let router = Router::connect_replicated(
        &groups,
        spec,
        fast_client(),
        BreakerConfig::default(),
        fast_policy(),
    )
    .unwrap();
    router.register_view("v", QUERY, "fff", "auto").unwrap();

    let serve = |router: &Router| -> (usize, Vec<u64>) {
        let mut block = AnswerBlock::new();
        let n = router.serve_into("v", &[], &mut block).unwrap();
        (n, block.values().to_vec())
    };
    let mut want = AnswerBlock::new();
    (&oracle as &dyn BlockService)
        .serve_into("v", &[], &mut want)
        .unwrap();

    // Healthy fleet: exact.
    let (_, healthy) = serve(&router);
    assert_eq!(healthy, want.values(), "healthy fleet diverged");

    // One replica per shard dies: still exact, via the survivors.
    for row in &mut servers {
        if let Some(mut h) = row[0].take() {
            h.shutdown();
        }
    }
    let (_, after_kills) = serve(&router);
    assert_eq!(after_kills, want.values(), "failover serve diverged");
    assert!(
        router.fleet_stats().groups.failovers > 0,
        "failover counter never moved"
    );

    // Shard 1 loses its last replica: strict mode fails typed…
    if let Some(mut h) = servers[1][1].take() {
        h.shutdown();
    }
    let err = router
        .serve_into("v", &[], &mut AnswerBlock::new())
        .unwrap_err();
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert!(
                c == code::SHARD_FAILED || c == code::DEADLINE,
                "outage must be typed, got code {c}: {detail}"
            );
            assert!(detail.contains("shard 1"), "must name the shard: {detail}");
        }
        other => panic!("whole-group outage must be a typed error, got {other}"),
    }

    // …and degraded mode answers exactly shard 0's slice, with the
    // missing shard in the coverage bitmap and a typed DEGRADED marker.
    let mut got = AnswerBlock::new();
    let degraded_ok = ServeOpts {
        mode: ServeMode::DegradedOk,
        ..ServeOpts::default()
    };
    let report = router.serve("v", &[], &mut got, &degraded_ok).unwrap();
    assert!(report.is_degraded());
    assert_eq!(report.coverage.missing(), vec![1]);
    assert_eq!(report.failures.len(), 1);
    let degraded = report.degraded_error().unwrap();
    assert!(
        matches!(
            degraded,
            CqcError::Protocol {
                code: code::DEGRADED,
                ..
            }
        ),
        "{degraded}"
    );
    let mut shard0_want = AnswerBlock::new();
    (&shard0_oracle as &dyn BlockService)
        .serve_into("v", &[], &mut shard0_want)
        .unwrap();
    assert_eq!(
        got.values(),
        shard0_want.values(),
        "degraded stream must be exactly the covered shards' answers"
    );
}

/// Connecting to a fleet with several dead replicas reports *all* of
/// them in one error — not just the first.
#[test]
fn connect_reports_every_unreachable_address() {
    // Live shard 0; two dead replica addresses for shard 1 (bind-then-
    // drop guarantees nothing listens there).
    let live = NetServer::spawn(
        Arc::new(Engine::new(triangle_db(5))),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .unwrap();
    let dead: Vec<String> = (0..2)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        })
        .collect();

    let groups = vec![vec![live.addr().to_string()], dead.clone()];
    let err = Router::connect_replicated(
        &groups,
        cqc_storage::PartitionSpec::new(),
        fast_client(),
        BreakerConfig::default(),
        fast_policy(),
    )
    .unwrap_err();
    let msg = err.to_string();
    for addr in &dead {
        assert!(msg.contains(addr), "error must name {addr}: {msg}");
    }
    assert!(msg.contains("2 unreachable"), "must count the dead: {msg}");
}

/// The ambiguous-I/O idempotency pin: a scripted shard applies the
/// update, then kills the connection before replying. The retry under
/// the same epoch precondition is answered EPOCH_MISMATCH, the health
/// probe shows exactly one bump past the precondition, and the client
/// concludes the first attempt landed — the delta applies exactly once.
#[test]
fn ambiguous_update_retry_applies_exactly_once() {
    let apply_count = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&apply_count);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        // Scripted shard: epoch starts at 7; the first update applies and
        // then dies without a reply, later updates are checked against
        // the precondition for real.
        let mut epoch: u64 = 7;
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut frames = FrameReader::new();
            let mut w = PayloadWriter::new();
            while let Ok((kind, body)) = frames.read_frame(&mut stream) {
                match kind {
                    FrameKind::Health => {
                        protocol::encode_epoch_reply(&mut w, &[epoch]);
                        frame::write_frame(&mut stream, FrameKind::HealthOk, w.bytes()).unwrap();
                        stream.flush().unwrap();
                    }
                    FrameKind::Update => {
                        let (_, precondition) = protocol::parse_update(body).unwrap();
                        let want = precondition.expect("the client must precondition retries");
                        if want != [epoch] {
                            protocol::encode_error(
                                &mut w,
                                &CqcError::Protocol {
                                    code: code::EPOCH_MISMATCH,
                                    detail: format!("at {epoch}, precondition {want:?}"),
                                },
                            );
                            frame::write_frame(&mut stream, FrameKind::Error, w.bytes()).unwrap();
                            stream.flush().unwrap();
                            continue;
                        }
                        // Apply, bump — and die before replying on the
                        // first apply (the ambiguous-I/O window).
                        epoch += 1;
                        if counted.fetch_add(1, Ordering::SeqCst) == 0 {
                            break; // drop the connection, no reply
                        }
                        protocol::encode_epoch_reply(&mut w, &[epoch]);
                        frame::write_frame(&mut stream, FrameKind::UpdateOk, w.bytes()).unwrap();
                        stream.flush().unwrap();
                    }
                    _ => break,
                }
            }
        }
    });

    let group = ReplicaGroup::new(
        0,
        &[addr],
        fast_client(),
        BreakerConfig::default(),
        fast_policy(),
    );
    let mut delta = Delta::new();
    delta.insert("R", vec![1, 2]);

    let epochs = group.update_preconditioned(&delta, &[7]).unwrap();
    assert_eq!(epochs, vec![8], "reconciled vector must be the bumped one");
    assert_eq!(
        apply_count.load(Ordering::SeqCst),
        1,
        "the delta must apply exactly once despite the transport death"
    );
    assert_eq!(group.stats().update_failures, 0, "the update succeeded");
}

/// A group's budgeted attempts are the one retry layer under it: with one
/// attempt per request, a server that refuses every serve sees exactly one
/// serve, however many `refused_retries` the client config asks for.
#[test]
fn a_group_retries_a_refused_serve_only_through_its_attempts() {
    let server = NetServer::spawn(
        Arc::new(Engine::new(triangle_db(5))),
        "127.0.0.1:0",
        NetServerConfig {
            max_inflight: 0,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let router = Router::connect_replicated(
        &[vec![server.addr().to_string()]],
        PartitionSpec::new(),
        ClientConfig {
            refused_retries: 3,
            ..fast_client()
        },
        BreakerConfig::default(),
        RetryPolicy {
            attempts: 1,
            ..fast_policy()
        },
    )
    .unwrap();
    router.register_view("v", QUERY, "fff", "direct").unwrap();
    let err = router
        .serve_into("v", &[], &mut AnswerBlock::new())
        .unwrap_err();
    assert!(
        matches!(
            err,
            CqcError::Protocol {
                code: code::REFUSED,
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(server.admission_stats().attempts(), 1, "{err}");
}
