//! Fault injection: every way a fleet can misbehave must surface as a
//! *typed* error in bounded time — never a hang, never a silent partial
//! answer. Scripted fake shards (raw TCP speaking the frame codec) make
//! the failures deterministic: death mid-stream, a stalled server, an
//! overloaded server, a wrong protocol version, a malformed chunk, a
//! stream whose chunks disagree on their arity, a server-side deadline and
//! a budget below a slow service's measured serve cost are each provoked
//! on purpose and asserted on by error code.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqc_common::frame::{self, code, FrameKind, FrameReader, PayloadWriter, ServePriority};
use cqc_common::{AnswerBlock, AnswerSink, CqcError};
use cqc_engine::{BlockService, Engine};
use cqc_net::{
    protocol, BreakerConfig, ChaosService, ClientConfig, Deadline, Fault, NetServer,
    NetServerConfig, RetryPolicy, Router, ServeMode, ServeOpts, ServerHandle, ShardClient,
};
use cqc_storage::{shard_of_value, Database, Delta, PartitionSpec, Partitioning, Relation};

/// A scripted fake shard: binds a loopback port, accepts one connection,
/// and hands it to `behavior`. The thread is detached — it dies with the
/// test process.
fn fake_shard(behavior: impl FnOnce(TcpStream) + Send + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            behavior(stream);
        }
    });
    addr
}

fn send(stream: &mut TcpStream, kind: FrameKind, payload: &PayloadWriter) {
    frame::write_frame(stream, kind, payload.bytes()).unwrap();
    stream.flush().unwrap();
}

/// A scripted fake shard that accepts connections one after another: it
/// answers health and register at epoch vector `[7]`, and each serve with
/// the raw chunks `script(bound)` lists — `(arity, claimed count, values)`,
/// unchecked — then `ServeDone`. Writes to a client that already hung up
/// are ignored, so the next connection is still served.
fn scripted_chunks(
    script: impl Fn(&[u64]) -> Vec<(u16, u32, Vec<u64>)> + Send + 'static,
) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let mut frames = FrameReader::new();
            let mut w = PayloadWriter::new();
            let reply = |stream: &mut TcpStream, kind, w: &PayloadWriter| {
                let _ = frame::write_frame(stream, kind, w.bytes());
            };
            while let Ok((kind, body)) = frames.read_frame(&mut stream) {
                match kind {
                    FrameKind::Health => {
                        protocol::encode_epoch_reply(&mut w, &[7]);
                        reply(&mut stream, FrameKind::HealthOk, &w);
                    }
                    FrameKind::Register => {
                        protocol::encode_epoch_reply(&mut w, &[7]);
                        reply(&mut stream, FrameKind::RegisterOk, &w);
                    }
                    FrameKind::Serve => {
                        let chunks = script(&protocol::parse_serve(body).unwrap().bound);
                        for (arity, count, values) in &chunks {
                            w.start().put_u16(*arity).put_u32(*count);
                            for &v in values {
                                w.put_u64(v);
                            }
                            reply(&mut stream, FrameKind::Chunk, &w);
                        }
                        let total = chunks.iter().map(|c| u64::from(c.1)).sum();
                        protocol::encode_serve_done(&mut w, total, &[7]);
                        reply(&mut stream, FrameKind::ServeDone, &w);
                    }
                    _ => break,
                }
            }
        }
    });
    addr
}

/// Client config tuned for tests: fail fast, short backoffs.
fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_attempts: 2,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        io_timeout: Some(Duration::from_millis(500)),
        refused_retries: 1,
        jitter_seed: 0,
    }
}

fn tiny_db() -> Database {
    let mut db = Database::new();
    db.add(Relation::from_pairs(
        "R",
        vec![(1, 2), (2, 3), (3, 1), (1, 3), (2, 1)],
    ))
    .unwrap();
    db
}

/// A shard that answers health and register, streams half an answer, then
/// dies. The router must return a typed [`code::SHARD_FAILED`] naming the
/// shard — quickly, not after a hang.
#[test]
fn shard_death_mid_stream_is_typed_not_hung() {
    let addr = fake_shard(|mut stream| {
        let mut frames = FrameReader::new();
        let mut w = PayloadWriter::new();
        loop {
            let kind = match frames.read_frame(&mut stream) {
                Ok((k, _)) => k,
                Err(_) => return,
            };
            match kind {
                FrameKind::Health => {
                    protocol::encode_epoch_reply(&mut w, &[7]);
                    send(&mut stream, FrameKind::HealthOk, &w);
                }
                FrameKind::Register => {
                    protocol::encode_epoch_reply(&mut w, &[7]);
                    send(&mut stream, FrameKind::RegisterOk, &w);
                }
                FrameKind::Serve => {
                    // Half an answer stream, then death mid-serve.
                    let mut block = AnswerBlock::new();
                    block.push(&[1, 2]);
                    frame::encode_chunk(&mut w, &block, 0, 1);
                    send(&mut stream, FrameKind::Chunk, &w);
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                _ => return,
            }
        }
    });

    let router = Router::connect(
        &[addr],
        PartitionSpec::new(), // R replicated → served by "shard 0" alone
        fast_client(),
    )
    .unwrap();
    router
        .register_view("v", "Q(x,y) :- R(x,y)", "ff", "direct")
        .unwrap();

    let t0 = Instant::now();
    let mut block = AnswerBlock::new();
    let err = router.serve_into("v", &[], &mut block).unwrap_err();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "partial failure took {:?} — that is a hang, not a typed error",
        t0.elapsed()
    );
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::SHARD_FAILED, "wrong code: {detail}");
            assert!(detail.contains("shard 0"), "must name the shard: {detail}");
        }
        other => panic!("expected SHARD_FAILED, got {other}"),
    }
}

/// Killing a *real* shard server under a live router: the next serve
/// fails fast with [`code::SHARD_FAILED`] instead of waiting forever on a
/// dead socket.
#[test]
fn killed_shard_server_fails_fast() {
    let db = tiny_db();
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let handle = NetServer::spawn(
            Arc::new(Engine::new(db.clone())),
            "127.0.0.1:0",
            NetServerConfig::default(),
        )
        .unwrap();
        addrs.push(handle.addr().to_string());
        servers.push(handle);
    }
    let router = Router::connect(&addrs, PartitionSpec::new(), fast_client()).unwrap();
    router
        .register_view("v", "Q(x,y) :- R(x,y)", "ff", "direct")
        .unwrap();
    router
        .serve_into("v", &[], &mut AnswerBlock::new())
        .unwrap();

    servers[0].shutdown();
    let t0 = Instant::now();
    let err = router
        .serve_into("v", &[], &mut AnswerBlock::new())
        .unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::SHARD_FAILED, "wrong code: {detail}");
            assert!(detail.contains("shard 0"), "must name the shard: {detail}");
        }
        other => panic!("expected SHARD_FAILED, got {other}"),
    }
}

/// A shard that accepts the request and then stalls forever: the client's
/// socket deadline fires and bounds the wait.
#[test]
fn slow_shard_hits_the_client_deadline() {
    let addr = fake_shard(|mut stream| {
        let mut frames = FrameReader::new();
        // Read the request, then stall well past the client's timeout.
        let _ = frames.read_frame(&mut stream);
        std::thread::sleep(Duration::from_secs(5));
    });

    let mut client = ShardClient::new(addr, fast_client());
    let t0 = Instant::now();
    let err = client.health().unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(400) && elapsed < Duration::from_secs(4),
        "deadline did not bound the wait: {elapsed:?}"
    );
    assert!(matches!(err, CqcError::Io(_)), "expected Io, got {err}");
}

/// A zero deadline on the server fires before the first answer is pushed
/// and comes back as a typed [`code::DEADLINE`] error frame mid-protocol.
#[test]
fn server_deadline_fires_as_a_typed_error() {
    let server = NetServer::spawn(
        Arc::new(Engine::new(tiny_db())),
        "127.0.0.1:0",
        NetServerConfig {
            request_deadline: Some(Duration::ZERO),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = ShardClient::new(server.addr().to_string(), fast_client());
    client
        .register(&protocol::RegisterReq {
            name: "v".into(),
            query: "Q(x,y) :- R(x,y)".into(),
            pattern: "ff".into(),
            strategy: "direct".into(),
        })
        .unwrap();
    let err = client
        .serve_with_sink("v", &[], &mut AnswerBlock::new())
        .unwrap_err();
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::DEADLINE, "wrong code: {detail}");
        }
        other => panic!("expected DEADLINE, got {other}"),
    }
    // The connection stays usable after a typed error: health still works.
    client.health().unwrap();
}

/// The server keeps the serve-cost estimate itself, so it sheds on cost
/// in front of any service — here a [`ChaosService`] slowed to about
/// 20 ms a serve. One unbounded serve sets the estimate; a serve whose
/// 5 ms wire budget cannot cover it is shed before admission: a typed
/// [`code::DEADLINE`], one more expired shed and no more admitted serves.
#[test]
fn slow_service_sheds_a_budget_below_its_measured_cost() {
    let chaos = Arc::new(ChaosService::new(Arc::new(Engine::new(tiny_db()))));
    chaos.set_fault(Fault::Slowdown(2));
    let server = NetServer::spawn(chaos, "127.0.0.1:0", NetServerConfig::default()).unwrap();
    let mut client = ShardClient::new(server.addr().to_string(), fast_client());
    client
        .register(&protocol::RegisterReq {
            name: "v".into(),
            query: "Q(x,y) :- R(x,y)".into(),
            pattern: "bf".into(),
            strategy: "direct".into(),
        })
        .unwrap();
    let mut block = AnswerBlock::new();
    client.serve_with_sink("v", &[1], &mut block).unwrap();
    assert_eq!(block.to_tuples(), vec![vec![2], vec![3]]);
    let before = server.admission_stats();
    let err = client
        .serve_with_sink_opts(
            "v",
            &[1],
            &mut AnswerBlock::new(),
            ServePriority::Interactive,
            Deadline::within(Some(Duration::from_millis(5)), Instant::now()),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            CqcError::Protocol {
                code: code::DEADLINE,
                ..
            }
        ),
        "expected a typed DEADLINE shed, got {err}"
    );
    let after = server.admission_stats();
    assert_eq!(after.shed_expired, before.shed_expired + 1, "{after:?}");
    assert_eq!(after.shed_total(), before.shed_total() + 1, "{after:?}");
    assert_eq!(after.admitted, before.admitted, "{after:?}");
}

/// With the in-flight gate at zero, every serve is refused; the client
/// retries its bounded number of times and then surfaces the typed
/// [`code::REFUSED`] backpressure error.
#[test]
fn overloaded_server_refuses_with_typed_backpressure() {
    let server = NetServer::spawn(
        Arc::new(Engine::new(tiny_db())),
        "127.0.0.1:0",
        NetServerConfig {
            max_inflight: 0,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = ShardClient::new(server.addr().to_string(), fast_client());
    // Register is not gated — only serve consumes an in-flight slot.
    client
        .register(&protocol::RegisterReq {
            name: "v".into(),
            query: "Q(x,y) :- R(x,y)".into(),
            pattern: "ff".into(),
            strategy: "direct".into(),
        })
        .unwrap();
    let err = client
        .serve_with_sink("v", &[], &mut AnswerBlock::new())
        .unwrap_err();
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::REFUSED, "wrong code: {detail}");
        }
        other => panic!("expected REFUSED, got {other}"),
    }
}

/// A malformed chunk mid-stream fails its own request with a typed
/// [`code::BAD_FRAME`] — and only its own: the server keeps streaming the
/// rest of that reply, so the client must drop the connection rather than
/// let the next request read those leftover frames as its answer.
#[test]
fn malformed_chunk_does_not_leak_into_the_next_request() {
    let addr = scripted_chunks(|bound| match bound {
        // Claims one answer of arity 2, carries one value; then the rest
        // of the reply.
        [1] => vec![(2, 1, vec![9]), (2, 1, vec![111, 222])],
        _ => vec![(2, 1, vec![5, 6])],
    });

    let mut client = ShardClient::new(addr, fast_client());
    let err = client
        .serve_with_sink("v", &[1], &mut AnswerBlock::new())
        .unwrap_err();
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::BAD_FRAME, "wrong code: {detail}");
        }
        other => panic!("expected BAD_FRAME, got {other}"),
    }
    let mut block = AnswerBlock::new();
    let (pushed, epochs) = client.serve_with_sink("v", &[2], &mut block).unwrap();
    assert_eq!(block.to_tuples(), vec![vec![5, 6]], "previous reply leaked");
    assert_eq!((pushed, epochs), (1, vec![7]));
}

/// A serve stream whose chunks change arity mid-stream (here 2, then 1)
/// is a typed [`code::BAD_FRAME`] before the second chunk reaches the
/// sink — not a panic in the router's fan-out thread (debug builds) or a
/// misaligned merge block (release) — and the poisoned connection is
/// replaced, so the next request is exact.
#[test]
fn chunk_arity_change_mid_stream_is_a_typed_error() {
    let addr = scripted_chunks(|bound| match bound {
        [1] => vec![(2, 1, vec![1, 2]), (1, 1, vec![3])],
        _ => vec![(1, 2, vec![5, 6])],
    });
    // One attempt per request: the error surfaces as is, and the breaker
    // stays closed for the follow-up request.
    let router = Router::connect_replicated(
        &[vec![addr]],
        PartitionSpec::new(),
        fast_client(),
        BreakerConfig::default(),
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        },
    )
    .unwrap();
    router
        .register_view("v", "Q(x,y) :- R(x,y)", "bf", "direct")
        .unwrap();
    let err = router
        .serve_into("v", &[1], &mut AnswerBlock::new())
        .unwrap_err();
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::BAD_FRAME, "wrong code: {detail}");
            assert!(detail.contains("arity"), "must name the arity: {detail}");
        }
        other => panic!("expected BAD_FRAME, got {other}"),
    }
    let mut block = AnswerBlock::new();
    assert_eq!(router.serve_into("v", &[2], &mut block).unwrap(), 2);
    assert_eq!(block.to_tuples(), vec![vec![5], vec![6]]);
}

/// A zero-arity stream holds at most one answer (the empty tuple of a
/// view whose head is all bound), so a 6-byte chunk claiming four billion
/// of them is refused at once as a typed [`code::BAD_FRAME`] instead of
/// driving four billion pushes no deadline interrupts.
#[test]
fn zero_arity_chunk_claiming_many_answers_is_refused() {
    let addr = scripted_chunks(|bound| match bound {
        [1] => vec![(0, 4_000_000_000, vec![])],
        _ => vec![(0, 1, vec![])],
    });
    let mut client = ShardClient::new(addr, fast_client());
    let t0 = Instant::now();
    let err = client
        .serve_with_sink("v", &[1], &mut AnswerBlock::new())
        .unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::BAD_FRAME, "wrong code: {detail}");
        }
        other => panic!("expected BAD_FRAME, got {other}"),
    }
    let mut block = AnswerBlock::new();
    assert_eq!(
        client.serve_with_sink("v", &[2], &mut block).unwrap(),
        (1, vec![7])
    );
    assert_eq!(block.to_tuples(), vec![Vec::<u64>::new()]);
}

/// A frame with the wrong protocol version is answered with a typed
/// [`code::VERSION_MISMATCH`] error frame, then the connection closes —
/// the server never guesses at an unknown wire format.
#[test]
fn wrong_protocol_version_is_rejected() {
    let server = NetServer::spawn(
        Arc::new(Engine::new(tiny_db())),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // len=2 (version + kind), version=99, kind=Health.
    stream.write_all(&2u32.to_le_bytes()).unwrap();
    stream.write_all(&[99, 0x04]).unwrap();
    stream.flush().unwrap();

    let mut frames = FrameReader::new();
    let (kind, body) = frames.read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Error);
    let err = protocol::parse_error(body).unwrap();
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::VERSION_MISMATCH, "wrong code: {detail}");
        }
        other => panic!("expected VERSION_MISMATCH, got {other}"),
    }
}

/// Two real shard servers over `R` hashed on its first column and `T`
/// replicated, with `owned` (`R` at `bf`: every request goes to the shard
/// owning its `x`) and `everywhere` (`T` at `bf`: shard 0 serves it)
/// registered. Returns the servers, the router, an unsharded oracle and
/// one `x` with answers owned by each shard.
fn routed_fleet() -> (Vec<ServerHandle>, Router, Engine, [u64; 2]) {
    let pairs: Vec<(u64, u64)> = (0..8).flat_map(|x| [(x, x + 1), (x, x + 2)]).collect();
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", pairs.clone())).unwrap();
    db.add(Relation::from_pairs("T", pairs)).unwrap();
    let spec = PartitionSpec::new().hash("R", 0).replicate("T");
    let slices = Partitioning::new(spec.clone(), 2)
        .unwrap()
        .split_database(&db)
        .unwrap();
    let servers: Vec<ServerHandle> = slices
        .into_iter()
        .map(|slice| {
            let engine = Arc::new(Engine::new(slice));
            NetServer::spawn(engine, "127.0.0.1:0", NetServerConfig::default()).unwrap()
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::connect(&addrs, spec, fast_client()).unwrap();
    let oracle = Engine::new(db);
    for svc in [&router as &dyn BlockService, &oracle] {
        svc.register_view("owned", "Q(x,y) :- R(x,y)", "bf", "direct")
            .unwrap();
        svc.register_view("everywhere", "Q(x,y) :- T(x,y)", "bf", "direct")
            .unwrap();
    }
    let owned_by = |s| (0..8).find(|&x| shard_of_value(x, 2) == s).unwrap();
    (servers, router, oracle, [owned_by(0), owned_by(1)])
}

fn with_mode(mode: ServeMode) -> ServeOpts {
    ServeOpts {
        mode,
        ..ServeOpts::default()
    }
}

/// A routed request reads only its owner's group, so it degrades only
/// when that group is down: `DegradedOk` reports the owner missing with
/// a typed `DEGRADED`, and `Strict` fails with the shard's typed error.
#[test]
fn routed_request_degrades_when_its_owner_is_down() {
    let (mut servers, router, _oracle, [_, x1]) = routed_fleet();
    servers[1].shutdown();

    let mut block = AnswerBlock::new();
    let report = router
        .serve(
            "owned",
            &[x1],
            &mut block,
            &with_mode(ServeMode::DegradedOk),
        )
        .unwrap();
    assert_eq!(report.coverage.shards(), 2);
    assert_eq!(report.coverage.missing(), vec![1]);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].0, 1);
    assert_eq!(report.answers, 0);
    assert!(
        matches!(
            report.degraded_error(),
            Some(CqcError::Protocol {
                code: code::DEGRADED,
                ..
            })
        ),
        "{:?}",
        report.degraded_error()
    );

    let err = router
        .serve("owned", &[x1], &mut block, &with_mode(ServeMode::Strict))
        .unwrap_err();
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::SHARD_FAILED, "wrong code: {detail}");
            assert!(detail.contains("shard 1"), "must name the shard: {detail}");
        }
        other => panic!("expected SHARD_FAILED, got {other}"),
    }
}

/// With a shard that owns none of a request's answers down, the request
/// is exact and its coverage full over all S shards — for a routed view
/// and for one shard 0 serves alone — in both modes.
#[test]
fn routed_request_is_exact_when_a_non_owner_is_down() {
    let (mut servers, router, oracle, [x0, _]) = routed_fleet();
    servers[1].shutdown();

    for view in ["owned", "everywhere"] {
        let mut want = AnswerBlock::new();
        oracle.serve_into(view, &[x0], &mut want).unwrap();
        assert!(!want.is_empty(), "{view}: no answers to compare");
        for mode in [ServeMode::Strict, ServeMode::DegradedOk] {
            let mut got = AnswerBlock::new();
            let report = router
                .serve(view, &[x0], &mut got, &with_mode(mode))
                .unwrap();
            assert_eq!(got.values(), want.values(), "{view} {mode:?}");
            assert_eq!(report.coverage.shards(), 2, "{view} {mode:?}");
            assert!(report.coverage.is_full(), "{view} {mode:?}");
            assert!(report.failures.is_empty(), "{view} {mode:?}");
        }
    }
}

/// An update that fails on one shard still moves every shard that applied
/// its slice to its new epochs: with shard 0 down, a delta touching both
/// shards fails, and a strict read that shard 1 owns afterwards is exact —
/// not an epoch mismatch against shard 1's pre-delta epochs.
#[test]
fn failed_update_records_every_shard_that_applied_it() {
    let (mut servers, router, oracle, [x0, x1]) = routed_fleet();
    servers[0].shutdown();

    let mut delta = Delta::new();
    delta.insert("R", vec![x0, 9]);
    delta.insert("R", vec![x1, 9]);
    let err = router.apply_update(&delta).unwrap_err();
    assert!(err.to_string().contains("shard 0"), "{err}");
    oracle.apply_update(&delta).unwrap();

    let mut want = AnswerBlock::new();
    oracle.serve_into("owned", &[x1], &mut want).unwrap();
    assert_eq!(want.len(), 3);
    let mut got = AnswerBlock::new();
    router
        .serve("owned", &[x1], &mut got, &with_mode(ServeMode::Strict))
        .unwrap();
    assert_eq!(got.values(), want.values());
}
