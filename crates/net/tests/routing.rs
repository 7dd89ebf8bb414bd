//! Per-request routing is invisible in the answers: a request whose bound
//! values fix the partition variable goes to one shard, every other
//! request to all of them, and both a [`ShardedEngine`] and a loopback
//! [`Router`] stream exactly what one unsharded [`Engine`] streams, in the
//! same order, at every shard count.

use std::sync::Arc;

use cqc_common::{AnswerBlock, CqcError, Value};
use cqc_engine::{BlockService, Engine, Route, ShardedEngine, ShardedEngineConfig};
use cqc_net::server::ServerHandle;
use cqc_net::{ClientConfig, NetServer, NetServerConfig, Router, ServeOpts};
use cqc_query::parser::parse_adorned;
use cqc_storage::{shard_of_value, Database, PartitionSpec, Partitioning, Relation};

const TRI: &str = "V(x,y,z) :- R(x,y), S(y,z), T(z,x)";
const P3: &str = "P(a,b,c,d) :- R(a,b), S(b,c), T(c,d)";
const P2: &str = "Q(a,b,c) :- R(a,b), S(b,c)";

/// `(name, query, pattern, strategy, partition position)`: the triangle
/// and the 2-path at `bff` fan out (their partition variable is free); the
/// others bind it as their second bound value.
const VIEWS: [(&str, &str, &str, &str, Option<usize>); 5] = [
    ("tri_bff", TRI, "bff", "tau:4", None),
    ("tri_bbf", TRI, "bbf", "auto", Some(1)),
    ("p3_bbff", P3, "bbff", "auto", Some(1)),
    ("p3_bbbf", P3, "bbbf", "auto", Some(1)),
    ("p2_bff", P2, "bff", "factorized", None),
];

/// Bound values: the graph's nodes and one value no relation holds.
const NODES: u64 = 12;
const ABSENT: Value = 1_000;

/// `R`, `S` and `T` hold one skewed friendship graph (node 0 the biggest
/// hub), so hub values carry long answer lists and the rest short ones.
fn skewed_db() -> Database {
    let mut rng = cqc_workload::rng(5);
    let graph = cqc_workload::graphs::friendship_graph(&mut rng, NODES, 60, 1.0);
    let pairs: Vec<(Value, Value)> = graph.iter().map(|t| (t[0], t[1])).collect();
    let mut db = Database::new();
    for name in ["R", "S", "T"] {
        db.add(Relation::from_pairs(name, pairs.clone())).unwrap();
    }
    db
}

/// The partition variable is the one `R` and `S` share.
fn spec() -> PartitionSpec {
    PartitionSpec::new()
        .hash("R", 1)
        .hash("S", 0)
        .replicate("T")
}

/// Every bound list of `arity` values over the nodes and [`ABSENT`].
fn bounds(arity: usize) -> Vec<Vec<Value>> {
    let values: Vec<Value> = (0..NODES).chain([ABSENT]).collect();
    let mut out = vec![vec![]];
    for _ in 0..arity {
        out = out
            .iter()
            .flat_map(|b| {
                values.iter().map(move |&v| {
                    let mut next = b.clone();
                    next.push(v);
                    next
                })
            })
            .collect();
    }
    out
}

/// FNV-1a over each request's values and answer count, in request order:
/// equal hashes mean equal answers in equal order.
fn stream_fnv(service: &dyn BlockService, view: &str, bounds: &[Vec<Value>]) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut block = AnswerBlock::new();
    let mut total = 0;
    for bound in bounds {
        block.reset();
        let n = service.serve_into(view, bound, &mut block).unwrap();
        assert_eq!(n, block.len(), "{view} {bound:?}: count");
        block.values().iter().for_each(|&v| word(v));
        word(n as u64);
        total += n;
    }
    (hash, total)
}

fn register_all(service: &dyn BlockService) {
    for (name, query, pattern, strategy, _) in VIEWS {
        service
            .register_view(name, query, pattern, strategy)
            .unwrap();
    }
}

/// One loopback server per slice of `db` under `spec()`.
fn spawn_fleet(db: &Database, shards: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let slices = Partitioning::new(spec(), shards)
        .unwrap()
        .split_database(db)
        .unwrap();
    let servers: Vec<ServerHandle> = slices
        .into_iter()
        .map(|slice| {
            let engine = Arc::new(Engine::new(slice));
            NetServer::spawn(engine, "127.0.0.1:0", NetServerConfig::default()).unwrap()
        })
        .collect();
    let addrs = servers.iter().map(|s| s.addr().to_string()).collect();
    (servers, addrs)
}

/// At S ∈ {1, 2, 3, 4}, routed and fanned-out views stream what the
/// unsharded engine streams — through a `ShardedEngine` and through a
/// loopback `Router` — over bound values owned by every shard and one
/// value absent everywhere.
#[test]
fn routed_streams_equal_the_unsharded_engine_at_every_shard_count() {
    let db = skewed_db();
    let engine = Engine::new(db.clone());
    register_all(&engine);
    for (name, query, pattern, _, position) in VIEWS {
        let want = position.map_or(Route::Every, |position| Route::Owner {
            position,
            arity: pattern.matches('b').count(),
        });
        let view = parse_adorned(query, pattern).unwrap();
        assert_eq!(Route::for_view(&spec(), &view).unwrap(), want, "{name}");
    }
    let want: Vec<(u64, usize)> = VIEWS
        .iter()
        .map(|&(name, _, pattern, _, _)| {
            stream_fnv(&engine, name, &bounds(pattern.matches('b').count()))
        })
        .collect();
    assert!(want.iter().all(|&(_, n)| n > 0), "{want:?}");

    for shards in 1..=4 {
        let owners: Vec<usize> = (0..NODES).map(|v| shard_of_value(v, shards)).collect();
        assert!(
            (0..shards).all(|s| owners.contains(&s)),
            "S = {shards}: some shard owns no bound value"
        );
        let config = ShardedEngineConfig {
            shards,
            ..ShardedEngineConfig::default()
        };
        let sharded = ShardedEngine::new(db.clone(), spec(), config).unwrap();
        register_all(&sharded);
        let (_servers, addrs) = spawn_fleet(&db, shards);
        let router = Router::connect(&addrs, spec(), ClientConfig::default()).unwrap();
        register_all(&router);
        for (&(name, _, pattern, _, _), want) in VIEWS.iter().zip(&want) {
            let bounds = bounds(pattern.matches('b').count());
            assert_eq!(
                stream_fnv(&sharded, name, &bounds),
                *want,
                "local, S = {shards}, {name}"
            );
            assert_eq!(
                stream_fnv(&router, name, &bounds),
                *want,
                "fleet, S = {shards}, {name}"
            );
        }
    }
}

/// A routed request through the router reads its partition value only
/// from a bound list of the view's arity: a short and a long list stay
/// the shards' typed arity error, never an index panic.
#[test]
fn routed_router_serve_keeps_the_arity_error() {
    let db = skewed_db();
    let (_servers, addrs) = spawn_fleet(&db, 3);
    let router = Router::connect(&addrs, spec(), ClientConfig::default()).unwrap();
    router.register_view("p3", P3, "bbff", "auto").unwrap();
    for bound in [&[][..], &[1][..], &[1, 2, 3][..]] {
        let err = router
            .serve("p3", bound, &mut AnswerBlock::new(), &ServeOpts::default())
            .unwrap_err();
        assert!(
            matches!(err, CqcError::InvalidAccess(_)),
            "{bound:?}: {err}"
        );
    }
    let report = router
        .serve(
            "p3",
            &[1, 2],
            &mut AnswerBlock::new(),
            &ServeOpts::default(),
        )
        .unwrap();
    assert!(report.coverage.is_full());
}
