//! Loopback acceptance: a fleet of real shard servers on 127.0.0.1 behind
//! a [`Router`] must be observationally identical to an in-process
//! [`ShardedEngine`] under the same partition spec — tuple for tuple,
//! order included — across strategies, adornment patterns, and
//! interleaved updates. The consistency machinery (per-request epoch
//! vectors, typed remote errors) is exercised against the same fleet.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cqc_common::frame::{code, ServePriority};
use cqc_common::{AnswerBlock, CqcError, ExistsSink};
use cqc_engine::{
    spec_for_view, BlockService, Engine, Policy, Route, ShardedEngine, ShardedEngineConfig,
};
use cqc_join::naive::evaluate_view;
use cqc_net::server::ServerHandle;
use cqc_net::{
    BreakerConfig, BreakerTransitions, ClientConfig, Deadline, NetServer, NetServerConfig,
    RemoteShard, RetryPolicy, Router, ServeOpts, ShardClient,
};
use cqc_query::parser::parse_adorned;
use cqc_storage::{Database, Delta, PartitionSpec, Partitioning};

const QUERY: &str = "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)";
const SHARDS: usize = 4;

fn triangle_db(seed: u64) -> Database {
    let mut rng = cqc_workload::rng(seed);
    let mut db = Database::new();
    for name in ["R", "S", "T"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 120, 12))
            .unwrap();
    }
    db
}

/// Fast-failing client config: tests should never sit out the default
/// 5-second socket timeout.
fn client_config() -> ClientConfig {
    ClientConfig {
        io_timeout: Some(std::time::Duration::from_secs(10)),
        ..ClientConfig::default()
    }
}

/// One real shard server per slice of `db` under `spec`, on OS-chosen
/// loopback ports. Handles shut the servers down on drop.
fn spawn_fleet(db: &Database, spec: &PartitionSpec) -> (Vec<ServerHandle>, Vec<String>) {
    let part = Partitioning::new(spec.clone(), SHARDS).unwrap();
    let mut servers = Vec::with_capacity(SHARDS);
    let mut addrs = Vec::with_capacity(SHARDS);
    for slice in part.split_database(db).unwrap() {
        let handle = NetServer::spawn(
            Arc::new(Engine::new(slice)),
            "127.0.0.1:0",
            NetServerConfig::default(),
        )
        .unwrap();
        addrs.push(handle.addr().to_string());
        servers.push(handle);
    }
    (servers, addrs)
}

/// An unregistered in-process sharded engine over `db` under `spec`.
fn sharded_engine(db: &Database, spec: &PartitionSpec, shards: usize) -> ShardedEngine {
    let config = ShardedEngineConfig {
        shards,
        ..ShardedEngineConfig::default()
    };
    ShardedEngine::new(db.clone(), spec.clone(), config).unwrap()
}

/// The in-process reference under the identical spec and shard count.
fn local_sharded(db: &Database, spec: &PartitionSpec, pattern: &str, token: &str) -> ShardedEngine {
    let sharded = sharded_engine(db, spec, SHARDS);
    let view = parse_adorned(QUERY, pattern).unwrap();
    sharded
        .register("v", view, Policy::parse(token).unwrap())
        .unwrap();
    sharded
}

/// The merged streams of view `v`, one flat tuple vector per request —
/// the local sharded engine and the router answer through the same call.
fn streams(service: &dyn BlockService, bounds: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let mut block = AnswerBlock::new();
    bounds
        .iter()
        .map(|bound| {
            block.reset();
            service.serve_into("v", bound, &mut block).unwrap();
            block.values().to_vec()
        })
        .collect()
}

/// Every combination of `nb` bound values over the generator domain,
/// stepped so the grid stays small.
fn bound_grid(nb: usize) -> Vec<Vec<u64>> {
    let mut grid: Vec<Vec<u64>> = vec![vec![]];
    for _ in 0..nb {
        grid = grid
            .iter()
            .flat_map(|b| {
                (0..12u64).step_by(3).map(move |v| {
                    let mut b2 = b.clone();
                    b2.push(v);
                    b2
                })
            })
            .collect();
    }
    grid
}

/// One [`BlockService`] contract, four implementors: a local engine, a
/// sharded engine, a remote shard behind a socket, and a router over a
/// fleet must be indistinguishable through `serve_into` — exact answers in
/// lexicographic order, an honest count, an early stop that leaves the
/// service usable, and typed request errors.
#[test]
fn block_service_contract_holds_for_every_implementor() {
    let db = triangle_db(53);
    let view = parse_adorned(QUERY, "bff").unwrap();
    let spec = spec_for_view(&view, &db);

    let engine = Engine::new(db.clone());
    let sharded = sharded_engine(&db, &spec, 3);
    let server = NetServer::spawn(
        Arc::new(Engine::new(db.clone())),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .unwrap();
    let remote = RemoteShard::connect(server.addr().to_string(), client_config());
    // Two replicas per shard, so that a failover has somewhere to go: the
    // spares must never see a serve.
    let (_primaries, addrs) = spawn_fleet(&db, &spec);
    let (spares, spare_addrs) = spawn_fleet(&db, &spec);
    let groups: Vec<Vec<String>> = addrs
        .into_iter()
        .zip(spare_addrs)
        .map(|(primary, spare)| vec![primary, spare])
        .collect();
    let router = Router::connect_replicated(
        &groups,
        spec.clone(),
        client_config(),
        BreakerConfig::default(),
        RetryPolicy::default(),
    )
    .unwrap();

    let implementors: [(&str, &dyn BlockService); 4] = [
        ("Engine", &engine),
        ("ShardedEngine", &sharded),
        ("RemoteShard", &remote),
        ("Router", &router),
    ];
    // The naive join's answers for x = 0..12, and the x with the most.
    let wants: Vec<_> = (0..12u64)
        .map(|x| evaluate_view(&view, &db, &[x]).unwrap())
        .collect();
    let busiest = (0..12u64).max_by_key(|&x| wants[x as usize].len()).unwrap();
    assert!(
        wants[busiest as usize].len() > 1,
        "workload too sparse to stop early"
    );
    for (who, service) in implementors {
        service.register_view("v", QUERY, "bff", "tau:2").unwrap();

        // Request errors keep their type. Checked first, and a few times
        // over: a layer that took a typed refusal of a malformed request
        // for a fault of whoever refused it (a replica group once did, and
        // opened the breaker on a healthy replica) fails the rows below.
        let mut block = AnswerBlock::new();
        for _ in 0..4 {
            let err = service.serve_into("nope", &[0], &mut block).unwrap_err();
            assert!(
                matches!(err, CqcError::UnknownView(ref v) if v.contains("nope")),
                "{who}: expected UnknownView, got {err}"
            );
            let err = service.serve_into("v", &[0, 1], &mut block).unwrap_err();
            assert!(
                matches!(err, CqcError::InvalidAccess(_)),
                "{who}: expected InvalidAccess, got {err}"
            );
        }
        assert!(block.is_empty(), "{who}: a failed request pushed answers");

        let serve_all = || {
            for (x, want) in (0..12u64).zip(&wants) {
                let mut block = AnswerBlock::new();
                let pushed = service.serve_into("v", &[x], &mut block).unwrap();
                assert_eq!(&block.to_tuples(), want, "{who}: answers for x = {x}");
                assert_eq!(pushed, want.len(), "{who}: count for x = {x}");
            }
        };
        serve_all();

        // A sink that hangs up after the first answer is told so — and the
        // service it hung up on serves the next full requests correctly.
        let mut probe = ExistsSink::default();
        let pushed = service.serve_into("v", &[busiest], &mut probe).unwrap();
        assert!(probe.found, "{who}: early stop saw no answer");
        assert_eq!(pushed, 1, "{who}: early stop must report what was pushed");
        serve_all();
    }

    // The router's replica groups took those refusals for what they were:
    // nothing failed over, no retry was funded, no breaker moved — and so
    // every well-formed request after them went to the replica that had
    // refused, not to its spare.
    let fleet = router.fleet_stats();
    assert_eq!(
        (fleet.groups.failovers, fleet.groups.budget_spent),
        (0, 0),
        "{fleet:?}"
    );
    assert_eq!(fleet.breakers, BreakerTransitions::default(), "{fleet:?}");
    for spare in &spares {
        assert_eq!(spare.admission_stats().admitted, 0, "a spare served");
    }
}

/// The acceptance property: the remote merged stream is tuple-for-tuple
/// identical — exact lexicographic order included — to the local sharded
/// stream, for every strategy token and adornment pattern.
#[test]
fn remote_stream_matches_local_sharded_across_strategies() {
    let db = triangle_db(41);
    for pattern in ["bfb", "bff", "fff"] {
        let view = parse_adorned(QUERY, pattern).unwrap();
        let spec = spec_for_view(&view, &db);
        let bounds = bound_grid(pattern.matches('b').count());
        for token in ["tau:2", "materialize", "direct", "factorized", "auto"] {
            let sharded = local_sharded(&db, &spec, pattern, token);
            if token == "factorized" {
                let explained = sharded.shard(0).explain("v").unwrap();
                assert!(
                    explained.contains("theorem 2") && explained.contains("(0 delay-tuned"),
                    "{explained}"
                );
            }
            let (_servers, addrs) = spawn_fleet(&db, &spec);
            let router = Router::connect(&addrs, spec.clone(), client_config()).unwrap();
            router.register_view("v", QUERY, pattern, token).unwrap();

            let local = streams(&sharded, &bounds);
            let remote = streams(&router, &bounds);
            assert_eq!(
                remote, local,
                "{token} pattern {pattern}: remote stream diverged"
            );
            assert!(
                local.iter().map(Vec::len).sum::<usize>() > 0,
                "{token} pattern {pattern}: workload served nothing — test is vacuous"
            );
        }
    }
}

/// Interleaved updates through both paths: after every delta the remote
/// stream must still equal the local stream, and the router's flattened
/// epoch view must track the sharded engine's version vector exactly.
#[test]
fn interleaved_updates_keep_remote_and_local_aligned() {
    let db = triangle_db(97);
    let view = parse_adorned(QUERY, "bff").unwrap();
    let spec = spec_for_view(&view, &db);
    let bounds = bound_grid(1);

    let sharded = local_sharded(&db, &spec, "bff", "tau:2");
    let (_servers, addrs) = spawn_fleet(&db, &spec);
    let router = Router::connect(&addrs, spec.clone(), client_config()).unwrap();
    router.register_view("v", QUERY, "bff", "tau:2").unwrap();
    assert_eq!(router.version(), sharded.version());

    let mut rng = cqc_workload::rng(5);
    let mut saw_removal = false;
    for round in 0..3u64 {
        let delta = cqc_workload::mixed_delta(&mut rng, &db, &["R", "S", "T"], 3, 2);
        saw_removal |= delta.remove_groups().any(|(_, ts)| !ts.is_empty());
        sharded.update(&delta).unwrap();
        let epochs = router.apply_update(&delta).unwrap();
        assert_eq!(epochs, sharded.version(), "round {round}: epochs diverged");

        let local = streams(&sharded, &bounds);
        let remote = streams(&router, &bounds);
        assert_eq!(remote, local, "round {round}: stream diverged after delta");
    }
    assert!(saw_removal, "no round carried a removal — test is vacuous");
}

/// The delete path over the wire: removing a witness tuple through the
/// router must shrink the remote stream exactly as the in-process sharded
/// engine shrinks — the removed answers vanish from both, the streams stay
/// tuple-for-tuple equal, and the epoch vectors advance in lockstep.
#[test]
fn remote_deletes_match_local_and_advance_epochs() {
    let db = triangle_db(67);
    let view = parse_adorned(QUERY, "fff").unwrap();
    let spec = spec_for_view(&view, &db);
    let bounds = vec![vec![]];

    let sharded = local_sharded(&db, &spec, "fff", "tau:2");
    let (_servers, addrs) = spawn_fleet(&db, &spec);
    let router = Router::connect(&addrs, spec.clone(), client_config()).unwrap();
    router.register_view("v", QUERY, "fff", "tau:2").unwrap();

    let before = streams(&sharded, &bounds);
    assert_eq!(streams(&router, &bounds), before);
    let answers_before = before[0].len() / 3;
    assert!(
        answers_before > 0,
        "no triangles to delete — test is vacuous"
    );

    // Delete the R-edge of the first witness triangle (x, y, z) → R(x, y):
    // every triangle through that edge must disappear from both paths.
    let mut delta = Delta::new();
    delta.remove("R", vec![before[0][0], before[0][1]]);
    let pre_version = sharded.version();
    sharded.update(&delta).unwrap();
    let epochs = router.apply_update(&delta).unwrap();
    assert_eq!(epochs, sharded.version(), "epochs diverged after delete");
    assert!(
        epochs.iter().zip(&pre_version).all(|(a, b)| a >= b)
            && epochs.iter().zip(&pre_version).any(|(a, b)| a > b),
        "delete must advance the epoch vector monotonically: {pre_version:?} -> {epochs:?}"
    );

    let local = streams(&sharded, &bounds);
    let remote = streams(&router, &bounds);
    assert_eq!(remote, local, "stream diverged after delete");
    assert!(
        local[0].len() / 3 < answers_before,
        "deleting a witness edge must shrink the answer stream"
    );

    // Deleting a tuple the database does not hold is a no-op on both
    // paths: epochs hold still and the streams are unchanged.
    let mut noop = Delta::new();
    noop.remove("R", vec![900, 901]);
    sharded.update(&noop).unwrap();
    let epochs_after = router.apply_update(&noop).unwrap();
    assert_eq!(epochs_after, epochs, "no-op delete must not bump epochs");
    assert_eq!(streams(&router, &bounds), local);
}

/// The deadline pin: a serve carrying a priority class and a generous
/// deadline budget on the wire must produce the *identical* merged
/// stream as an unbounded Interactive serve and the local sharded
/// engine — deadline propagation changes when work is shed,
/// never what an admitted serve answers. An already-expired budget must
/// come back as a typed [`code::DEADLINE`] shed, not a hang or a silent
/// partial stream.
#[test]
fn deadline_tailed_serves_match_tailless_and_local() {
    let db = triangle_db(29);
    let view = parse_adorned(QUERY, "bff").unwrap();
    let spec = spec_for_view(&view, &db);
    let bounds = bound_grid(1);

    let sharded = local_sharded(&db, &spec, "bff", "tau:2");
    let (_servers, addrs) = spawn_fleet(&db, &spec);
    let router = Router::connect(&addrs, spec.clone(), client_config()).unwrap();
    router.register_view("v", QUERY, "bff", "tau:2").unwrap();

    let local = streams(&sharded, &bounds);
    assert!(
        local.iter().map(Vec::len).sum::<usize>() > 0,
        "workload served nothing — test is vacuous"
    );
    for priority in [
        ServePriority::Interactive,
        ServePriority::Batch,
        ServePriority::Internal,
    ] {
        let tailed: Vec<Vec<u64>> = bounds
            .iter()
            .map(|bound| {
                let mut block = AnswerBlock::new();
                let opts = ServeOpts {
                    priority,
                    deadline: Some(Deadline::within(
                        Some(Duration::from_secs(30)),
                        Instant::now(),
                    )),
                    ..ServeOpts::default()
                };
                router.serve("v", bound, &mut block, &opts).unwrap();
                block.values().to_vec()
            })
            .collect();
        assert_eq!(
            tailed, local,
            "{priority:?}: deadline-tailed stream diverged from the local one"
        );
    }

    // Straight at one shard: the budgeted Batch serve answers
    // byte-for-byte what its unbounded Interactive twin answers, epochs
    // included.
    let mut client = ShardClient::new(addrs[0].clone(), client_config());
    let mut plain = AnswerBlock::new();
    let plain_reply = client.serve_with_sink("v", &bounds[0], &mut plain).unwrap();
    let mut tailed = AnswerBlock::new();
    let tailed_reply = client
        .serve_with_sink_opts(
            "v",
            &bounds[0],
            &mut tailed,
            ServePriority::Batch,
            Deadline::within(Some(Duration::from_secs(30)), Instant::now()),
        )
        .unwrap();
    assert_eq!(tailed_reply, plain_reply, "reply metadata diverged");
    assert_eq!(tailed.values(), plain.values(), "answer stream diverged");

    // A budget that is already gone is shed before enumeration, typed.
    let err = client
        .serve_with_sink_opts(
            "v",
            &bounds[0],
            &mut AnswerBlock::new(),
            ServePriority::Interactive,
            Deadline::within(Some(Duration::ZERO), Instant::now()),
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
}

/// An out-of-band writer (a client updating one shard directly, behind
/// the router's back) must surface as a typed [`code::EPOCH_MISMATCH`] on
/// the next serve — never as a silent merge of skewed versions — and
/// [`Router::health_check`] re-syncs.
#[test]
fn out_of_band_update_raises_epoch_mismatch_until_resync() {
    let db = triangle_db(11);
    let view = parse_adorned(QUERY, "bff").unwrap();
    let spec = spec_for_view(&view, &db);

    let (_servers, addrs) = spawn_fleet(&db, &spec);
    let router = Router::connect(&addrs, spec.clone(), client_config()).unwrap();
    router.register_view("v", QUERY, "bff", "direct").unwrap();

    // Sneak a delta into shard 0 without telling the router.
    let mut sneak = ShardClient::new(addrs[0].clone(), client_config());
    let mut delta = Delta::new();
    delta.insert("R", vec![100, 101]);
    sneak.update(&delta, None).unwrap();

    // The next serve that reads shard 0: one whose bound value shard 0
    // owns (this spec partitions on the bound `x`, so a request reads
    // only its owner's group).
    let route = Route::for_view(&spec, &view).unwrap();
    let owned = (0..).find(|&x| route.shard_for(&[x], SHARDS) == Some(0));
    let bound = [owned.unwrap()];
    let mut block = AnswerBlock::new();
    let err = router.serve_into("v", &bound, &mut block).unwrap_err();
    match err {
        CqcError::Protocol { code: c, detail } => {
            assert_eq!(c, code::EPOCH_MISMATCH, "wrong code: {detail}");
            assert!(
                detail.contains("shard 0"),
                "detail must name the shard: {detail}"
            );
        }
        other => panic!("expected an epoch mismatch, got {other}"),
    }

    // Re-sync, then the fleet serves again.
    router.health_check().unwrap();
    block.reset();
    router.serve_into("v", &bound, &mut block).unwrap();
}

/// Remote failures keep their types across the wire: an unknown view, a
/// bad strategy token, and an unparseable query all come back as the same
/// [`CqcError`] variants a local engine would raise.
#[test]
fn remote_errors_stay_typed() {
    let db = triangle_db(23);
    let view = parse_adorned(QUERY, "bff").unwrap();
    let spec = spec_for_view(&view, &db);
    let (_servers, addrs) = spawn_fleet(&db, &spec);

    // Unknown view, straight at a shard server.
    let mut client = ShardClient::new(addrs[0].clone(), client_config());
    let mut block = AnswerBlock::new();
    let err = client.serve_with_sink("nope", &[], &mut block).unwrap_err();
    // The variant survives the wire; the detail string is the remote
    // display text (lossy by design), so match on variant + substring.
    assert!(
        matches!(err, CqcError::UnknownView(ref v) if v.contains("nope")),
        "expected UnknownView, got {err}"
    );

    // Unknown view through the router (rejected before any wire traffic).
    let router = Router::connect(&addrs, spec.clone(), client_config()).unwrap();
    let err = router.serve_into("nope", &[], &mut block).unwrap_err();
    assert!(matches!(err, CqcError::UnknownView(_)), "got {err}");

    // A bad strategy token fails remotely as the same Config error the
    // local Policy parser raises.
    let err = router
        .register_view("v", QUERY, "bff", "bogus")
        .unwrap_err();
    assert!(matches!(err, CqcError::Config(_)), "got {err}");

    // An unparseable query is refused by the router locally.
    let err = router
        .register_view("v", "this is not a query", "bff", "auto")
        .unwrap_err();
    assert!(matches!(err, CqcError::Parse(_)), "got {err}");
}

/// Arity-0 answer streams (a fully-bound probe) survive the wire: chunk
/// frames carry explicit counts, so "yes, N times" round-trips even
/// though there are no values to send.
#[test]
fn fully_bound_probes_serve_remotely() {
    let db = triangle_db(41);
    let view = parse_adorned(QUERY, "bbb").unwrap();
    let spec = spec_for_view(&view, &db);
    let bounds = bound_grid(3);

    let sharded = local_sharded(&db, &spec, "bbb", "tau:2");
    let (_servers, addrs) = spawn_fleet(&db, &spec);
    let router = Router::connect(&addrs, spec.clone(), client_config()).unwrap();
    router.register_view("v", QUERY, "bbb", "tau:2").unwrap();

    let counts = |service: &dyn BlockService| -> Vec<usize> {
        let mut block = AnswerBlock::new();
        bounds
            .iter()
            .map(|bound| {
                block.reset();
                service.serve_into("v", bound, &mut block).unwrap()
            })
            .collect()
    };
    let local_counts = counts(&sharded);
    let remote_counts = counts(&router);
    assert_eq!(remote_counts, local_counts);
    assert!(
        local_counts.iter().sum::<usize>() > 0,
        "no witnesses in the grid — test is vacuous"
    );
}

/// A `Stats` probe reads back what the serving process holds: a registered
/// `tau:8` view's Theorem 1 counts equal the in-process `Theorem1Stats`,
/// its catalog row carries its recipe, bytes by part and epoch, and the
/// admission counters count serves but not the probe itself, which is
/// answered ahead of admission like a health probe.
#[test]
fn stats_frame_reports_what_the_serving_process_holds() {
    let (relations, _) = cqc_workload::triangle_relations(7, 400);
    let mut db = Database::new();
    for r in relations {
        db.add(r).unwrap();
    }
    let engine = Arc::new(Engine::new(db));
    let server = NetServer::spawn(
        Arc::clone(&engine) as Arc<dyn BlockService>,
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = ShardClient::new(server.addr().to_string(), client_config());
    client
        .register(&cqc_net::protocol::RegisterReq {
            name: "lo".into(),
            query: QUERY.into(),
            pattern: "bff".into(),
            strategy: "tau:8".into(),
        })
        .unwrap();

    let local = engine
        .theorem1_stats("lo")
        .unwrap()
        .expect("a Theorem 1 view");
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("theorem1.lo.tree_nodes"),
        Some(local.tree_nodes as u64)
    );
    assert_eq!(
        stats.get("theorem1.lo.tree_bytes"),
        Some(local.tree_bytes as u64)
    );
    assert_eq!(
        stats.get("theorem1.lo.dict_entries"),
        Some(local.dict_entries as u64)
    );
    assert_eq!(stats.get("catalog.builds"), Some(1));
    assert_eq!(stats.get("engine.epoch"), Some(engine.epoch()));
    assert_eq!(stats.get("admission.admitted"), Some(0));
    let [row] = &stats.views[..] else {
        panic!("one row per registered view: {:?}", stats.views);
    };
    assert_eq!(row.name, "lo");
    assert_eq!(row.recipe, engine.view("lo").unwrap().selection.tag);
    assert_eq!(
        (row.tree_bytes, row.dict_bytes, row.epoch),
        (
            local.tree_bytes as u64,
            local.dict_bytes as u64,
            Some(engine.epoch())
        )
    );
    // The row is the whole representation: the Theorem 1 structure and
    // the header of `{V_b} → {V}`, the view's three head variables once for
    // the structure and once for its bag, 4 B each.
    assert_eq!(
        row.tree_bytes + row.dict_bytes + row.base_bytes,
        local.heap_bytes as u64 + 2 * 3 * 4
    );
    assert!(row.build_work > 0);

    // A serve is admitted; the probes are not.
    client
        .serve_with_sink("lo", &[3], &mut AnswerBlock::new())
        .unwrap();
    let again = client.stats().unwrap();
    assert_eq!(again.get("admission.admitted"), Some(1));
    assert_eq!(again.views, stats.views);
    assert_eq!(
        RemoteShard::new(client)
            .stats()
            .unwrap()
            .get("admission.admitted"),
        Some(1),
        "the trait reads the same frame"
    );
}
