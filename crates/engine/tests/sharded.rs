//! Sharded-engine acceptance: a [`ShardedEngine`] must be observationally
//! identical to an unsharded [`Engine`] — tuple for tuple, across
//! strategies, shard counts, and interleaved updates — while routing work
//! and epochs only to the shards owning the touched rows.

use cqc_common::{metrics, AnswerBlock, ExistsSink};
use cqc_core::Strategy;
use cqc_engine::{
    spec_for_view, BlockService, Engine, Policy, ShardedBlocks, ShardedEngine, ShardedEngineConfig,
};
use cqc_query::parser::parse_adorned;
use cqc_storage::{shard_of_value, Database, Delta, PartitionSpec, Relation};

fn triangle_db(seed: u64) -> Database {
    let mut rng = cqc_workload::rng(seed);
    let mut db = Database::new();
    for name in ["R", "S", "T"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 120, 12))
            .unwrap();
    }
    db
}

fn config(shards: usize) -> ShardedEngineConfig {
    ShardedEngineConfig {
        shards,
        ..ShardedEngineConfig::default()
    }
}

fn strategies() -> Vec<(&'static str, Policy)> {
    vec![
        (
            "theorem-1",
            Policy::Fixed(Strategy::Tradeoff {
                tau: 2.0,
                weights: Some(vec![0.5, 0.5, 0.5]),
            }),
        ),
        ("materialize", Policy::Fixed(Strategy::Materialize)),
        ("direct", Policy::Fixed(Strategy::Direct)),
        ("factorized", Policy::Fixed(Strategy::Factorized)),
        ("auto", Policy::default()),
    ]
}

fn sorted(mut v: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    v.sort_unstable();
    v
}

/// The answers `service` serves for one request, as they reach the sink.
fn served(
    service: &dyn BlockService,
    view: &str,
    bound: &[u64],
) -> cqc_common::Result<Vec<Vec<u64>>> {
    let mut block = AnswerBlock::new();
    service.serve_into(view, bound, &mut block)?;
    Ok(block.to_tuples())
}

/// The acceptance property: sharded serve ≡ unsharded serve tuple for
/// tuple, for every strategy, shard count, pattern, and bound valuation.
#[test]
fn sharded_matches_unsharded_across_strategies_and_shard_counts() {
    let query = "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)";
    for pattern in ["bfb", "bff", "fff"] {
        let view = parse_adorned(query, pattern).unwrap();
        let nb = pattern.chars().filter(|c| *c == 'b').count();
        let mut requests: Vec<Vec<u64>> = vec![vec![]];
        for _ in 0..nb {
            requests = requests
                .iter()
                .flat_map(|r| {
                    (0..12u64).step_by(3).map(move |v| {
                        let mut r2 = r.clone();
                        r2.push(v);
                        r2
                    })
                })
                .collect();
        }
        for (tag, policy) in strategies() {
            let db = triangle_db(41);
            let engine = Engine::new(db.clone());
            engine.register("v", view.clone(), policy.clone()).unwrap();
            if tag == "factorized" {
                let explained = engine.explain("v").unwrap();
                assert!(
                    explained.contains("theorem 2") && explained.contains("(0 delay-tuned"),
                    "{explained}"
                );
            }
            for shards in [1usize, 2, 4, 7] {
                let sharded = ShardedEngine::for_view(db.clone(), &view, config(shards)).unwrap();
                sharded.register("v", view.clone(), policy.clone()).unwrap();
                for bound in &requests {
                    let expect = sorted(served(&engine, "v", bound).unwrap());
                    let got = sorted(served(&sharded, "v", bound).unwrap());
                    assert_eq!(
                        got, expect,
                        "{tag} pattern {pattern} shards {shards} bound {bound:?}"
                    );
                    let mut probe = ExistsSink::default();
                    let pushed = sharded.serve_into("v", bound, &mut probe).unwrap();
                    assert_eq!(
                        (probe.found, pushed),
                        (!expect.is_empty(), usize::from(!expect.is_empty())),
                        "{tag} exists {pattern} shards {shards} bound {bound:?}"
                    );
                }
            }
        }
    }
}

/// Interleaved updates: after every delta both engines must still agree,
/// and only the shards owning the delta's rows may advance their epoch.
#[test]
fn sharded_matches_unsharded_under_interleaved_updates() {
    let query = "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)";
    let view = parse_adorned(query, "bfb").unwrap();
    let policy = Policy::Fixed(Strategy::Tradeoff {
        tau: 2.0,
        weights: Some(vec![0.5, 0.5, 0.5]),
    });
    for shards in [2usize, 4, 7] {
        let db = triangle_db(97);
        let engine = Engine::new(db.clone());
        engine.register("v", view.clone(), policy.clone()).unwrap();
        let sharded = ShardedEngine::for_view(db, &view, config(shards)).unwrap();
        sharded.register("v", view.clone(), policy.clone()).unwrap();

        let mut rng = cqc_workload::rng(5);
        for round in 0..4u64 {
            let delta =
                cqc_workload::recombination_delta(&mut rng, &engine.db(), &["R", "S", "T"], 3);
            let (before, oracle_before) = (sharded.version(), engine.epoch());
            engine.update(&delta).unwrap();
            let after = sharded.update(&delta).unwrap();
            assert_eq!(after, sharded.version());
            // Only a shard with a non-empty sub-delta may move its epoch…
            let split = sharded.partitioning().split_delta(&delta).unwrap();
            for (si, ((b, a), sub)) in before.iter().zip(&after).zip(&split).enumerate() {
                if sub.is_empty() {
                    assert_eq!(a, b, "round {round}: shard {si} moved without a sub-delta");
                }
            }
            // …and some shard moves exactly when the delta changed the
            // unsharded database (every changed row lands in its owner).
            assert_eq!(
                after != before,
                engine.epoch() != oracle_before,
                "round {round}"
            );

            for x in (0..12u64).step_by(2) {
                for z in (0..12u64).step_by(3) {
                    let expect = sorted(served(&engine, "v", &[x, z]).unwrap());
                    let got = sorted(served(&sharded, "v", &[x, z]).unwrap());
                    assert_eq!(got, expect, "round {round} shards {shards} vb ({x},{z})");
                }
            }
        }
    }
}

/// A delta routed to a hashed relation touches exactly the owning shard's
/// epoch; the other components of the version vector are untouched.
#[test]
fn per_shard_epochs_advance_independently() {
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bff").unwrap();
    let db = {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 4)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 5), (3, 6), (4, 7)]))
            .unwrap();
        db
    };
    let sharded = ShardedEngine::for_view(db, &view, config(4)).unwrap();
    sharded
        .register("v", view, Policy::Fixed(Strategy::Direct))
        .unwrap();
    // spec_for_view picks y (R.1 = S.0): zero replication.
    assert_eq!(sharded.partitioning().spec().num_hashed(), 2);

    let before = sharded.version();
    let mut delta = Delta::new();
    delta.insert("R", vec![9, 4]); // y = 4 → exactly one owner shard
    assert_eq!(sharded.update(&delta).unwrap(), sharded.version());
    let owner = shard_of_value(4, 4);
    for (si, (b, a)) in before.iter().zip(&sharded.version()).enumerate() {
        if si == owner {
            assert!(a > b, "owner shard {si} must advance");
        } else {
            assert_eq!(a, b, "shard {si} must not advance");
        }
    }
    // The new tuple is served.
    assert!(served(&sharded, "v", &[9])
        .unwrap()
        .contains(&vec![4u64, 7]));
}

/// The k-way merge must restore the paper's lexicographic enumeration
/// order: the merged stream equals the unsharded flat stream exactly —
/// order included — not just as a set.
#[test]
fn merged_stream_preserves_lexicographic_order() {
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bff").unwrap();
    let mut rng = cqc_workload::rng(11);
    let mut db = Database::new();
    for name in ["R", "S"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 300, 20))
            .unwrap();
    }
    let policy = Policy::Fixed(Strategy::Tradeoff {
        tau: 4.0,
        weights: None,
    });
    let engine = Engine::new(db.clone());
    engine.register("p2", view.clone(), policy.clone()).unwrap();
    let sharded = ShardedEngine::for_view(db, &view, config(4)).unwrap();
    sharded.register("p2", view.clone(), policy).unwrap();

    let bounds: Vec<Vec<u64>> = (0..20u64).map(|x| vec![x]).collect();
    let serve_all = |service: &dyn BlockService| -> Vec<Vec<Vec<u64>>> {
        bounds
            .iter()
            .map(|b| {
                let mut block = AnswerBlock::new();
                service.serve_into("p2", b, &mut block).unwrap();
                block.to_tuples()
            })
            .collect()
    };
    let unsharded_blocks = serve_all(&engine);
    let merged_blocks = serve_all(&sharded);
    let total: usize = merged_blocks.iter().map(Vec::len).sum();
    assert_eq!(merged_blocks, unsharded_blocks, "order must match exactly");
    assert!(total > 500, "workload too sparse to be meaningful: {total}");
    for block in &merged_blocks {
        assert!(
            block.windows(2).all(|w| w[0] < w[1]),
            "merged block must be strictly lexicographically increasing"
        );
    }
}

/// A view over only replicated relations (here: a triple self-join that no
/// single column can partition) is routed to shard 0 alone — fanning it
/// out would duplicate every answer S times.
#[test]
fn replicate_only_views_route_to_shard_zero() {
    let mut rng = cqc_workload::rng(3);
    let mut db = Database::new();
    db.add(cqc_workload::uniform_relation(&mut rng, "R", 2, 150, 14))
        .unwrap();
    let view = parse_adorned("V(x,y,z) :- R(x,y), R(y,z), R(z,x)", "bfb").unwrap();
    let spec = spec_for_view(&view, &db);
    assert_eq!(spec.num_hashed(), 0, "self-join cannot be partitioned");

    let engine = Engine::new(db.clone());
    engine
        .register("mutual", view.clone(), Policy::default())
        .unwrap();
    let sharded = ShardedEngine::new(db, spec, config(4)).unwrap();
    sharded
        .register("mutual", view.clone(), Policy::default())
        .unwrap();
    // Only shard 0 carries the registration.
    assert!(sharded.shard(0).view("mutual").is_ok());
    for s in 1..4 {
        assert!(sharded.shard(s).view("mutual").is_err());
    }
    for x in 0..14u64 {
        for z in 0..14u64 {
            assert_eq!(
                sorted(served(&sharded, "mutual", &[x, z]).unwrap()),
                sorted(served(&engine, "mutual", &[x, z]).unwrap()),
                "vb ({x},{z})"
            );
        }
    }
}

/// Registering a view that uses a hash-partitioned relation in a way that
/// breaks the disjointness invariant must be refused — and rolled back, so
/// the name stays free.
#[test]
fn incompatible_views_are_rejected_and_rolled_back() {
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 1)]))
        .unwrap();
    // R is hash-partitioned on column 0.
    let spec = PartitionSpec::new().hash("R", 0);
    let sharded = ShardedEngine::new(db, spec, config(2)).unwrap();
    // The two atoms pin R's hash column to different variables (x and y):
    // per-shard answers would not be disjoint or complete.
    let bad = parse_adorned("Q(x,y,z) :- R(x,y), R(y,z)", "fff").unwrap();
    let err = sharded.register("v", bad, Policy::Fixed(Strategy::Direct));
    assert!(err.is_err());
    assert!(
        sharded.shard(0).view("v").is_err(),
        "rollback must unregister"
    );
    // The name is reusable with a compatible view.
    let good = parse_adorned("Q(x,y) :- R(x,y)", "bf").unwrap();
    sharded
        .register("v", good, Policy::Fixed(Strategy::Direct))
        .unwrap();
    assert_eq!(served(&sharded, "v", &[1]).unwrap(), vec![vec![2u64]]);
}

/// Re-registering an existing name must fail cleanly and leave the
/// original registration serving on every shard (a failed duplicate must
/// not be "rolled back" over a working view).
#[test]
fn duplicate_register_preserves_existing_view() {
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 1)]))
        .unwrap();
    let view = parse_adorned("Q(x,y) :- R(x,y)", "bf").unwrap();
    let sharded = ShardedEngine::for_view(db, &view, config(2)).unwrap();
    sharded
        .register("v", view.clone(), Policy::Fixed(Strategy::Direct))
        .unwrap();
    assert_eq!(served(&sharded, "v", &[1]).unwrap(), vec![vec![2u64]]);

    let dup = sharded.register("v", view, Policy::Fixed(Strategy::Materialize));
    assert!(dup.is_err(), "duplicate name must be rejected");
    // The original registration still serves on every shard.
    assert_eq!(served(&sharded, "v", &[1]).unwrap(), vec![vec![2u64]]);
    assert_eq!(served(&sharded, "v", &[2]).unwrap(), vec![vec![3u64]]);
}

/// The shard-major block path reuses its scratch: a second pass over the
/// same stream pushes the same answers into the same blocks.
#[test]
fn serve_blocks_into_is_reusable() {
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bff").unwrap();
    let mut rng = cqc_workload::rng(23);
    let mut db = Database::new();
    for name in ["R", "S"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 200, 16))
            .unwrap();
    }
    let sharded = ShardedEngine::for_view(db, &view, config(3)).unwrap();
    sharded
        .register(
            "p2",
            view,
            Policy::Fixed(Strategy::Tradeoff {
                tau: 4.0,
                weights: None,
            }),
        )
        .unwrap();
    let bounds: Vec<Vec<u64>> = (0..16u64).map(|x| vec![x]).collect();
    let mut scratch = ShardedBlocks::new();
    let first = sharded
        .serve_blocks_into("p2", &bounds, &mut scratch)
        .unwrap();
    let snapshot: Vec<Vec<Vec<u64>>> = (0..bounds.len())
        .map(|i| {
            scratch
                .request_blocks(i)
                .flat_map(|b| b.iter().map(<[u64]>::to_vec))
                .collect()
        })
        .collect();
    let second = sharded
        .serve_blocks_into("p2", &bounds, &mut scratch)
        .unwrap();
    assert_eq!(first, second);
    assert!(first > 100, "workload too sparse: {first}");
    for (i, expect) in snapshot.iter().enumerate() {
        let again: Vec<Vec<u64>> = scratch
            .request_blocks(i)
            .flat_map(|b| b.iter().map(<[u64]>::to_vec))
            .collect();
        assert_eq!(&again, expect, "request {i}");
    }
}

/// A sharded engine over `triangle_db(seed)` hashing `R` on column 1 and
/// `S` on column 0, with the 3-path `P(a,b,c,d)` registered at `bbff`:
/// its partition variable `b` is the second bound value, so every request
/// of the right length goes to one shard.
fn routed_path(shards: usize) -> ShardedEngine {
    let spec = PartitionSpec::new()
        .hash("R", 1)
        .hash("S", 0)
        .replicate("T");
    let view = parse_adorned("P(a,b,c,d) :- R(a,b), S(b,c), T(c,d)", "bbff").unwrap();
    assert_eq!(
        cqc_engine::Route::for_view(&spec, &view).unwrap(),
        cqc_engine::Route::Owner {
            position: 1,
            arity: 2
        }
    );
    let sharded = ShardedEngine::new(triangle_db(29), spec, config(shards)).unwrap();
    sharded.register("p3", view, Policy::default()).unwrap();
    sharded
}

fn is_invalid_access(r: cqc_common::Result<usize>) -> bool {
    matches!(r, Err(cqc_common::CqcError::InvalidAccess(_)))
}

/// A routed request reads its partition value only from a bound list of
/// the view's arity: a short list (no value at the partition position)
/// and a long one stay the typed arity error through `serve_into`.
#[test]
fn routed_serve_into_keeps_the_arity_error() {
    let sharded = routed_path(3);
    for bound in [&[][..], &[1][..], &[1, 2, 3][..]] {
        let r = sharded.serve_into("p3", bound, &mut AnswerBlock::new());
        assert!(is_invalid_access(r), "bound {bound:?}");
    }
    assert!(sharded
        .serve_into("p3", &[1, 2], &mut AnswerBlock::new())
        .is_ok());
}

/// The same guard per bound of a `serve_blocks_into` batch: one wrong
/// length fails the batch with the typed arity error, never a panic.
#[test]
fn routed_serve_blocks_into_keeps_the_arity_error() {
    let sharded = routed_path(3);
    let mut scratch = ShardedBlocks::new();
    for bad in [vec![1], vec![1, 2, 3]] {
        let bounds = vec![vec![0, 1], bad.clone(), vec![2, 3]];
        let r = sharded.serve_blocks_into("p3", &bounds, &mut scratch);
        assert!(is_invalid_access(r), "bound {bad:?}");
    }
    assert!(sharded
        .serve_blocks_into("p3", &[vec![0, 1], vec![2, 3]], &mut scratch)
        .is_ok());
}

/// The work counters a call moves on this thread.
fn work_of(f: impl FnOnce()) -> u64 {
    let before = metrics::snapshot();
    f();
    metrics::snapshot().delta_since(&before).work()
}

/// Work counted on every shard a request fans out to comes home to the
/// caller: at each shard count, a request's work is the sum of what each
/// shard's own engine counts serving it.
#[test]
fn fanned_out_work_is_the_sum_of_the_shards_work() {
    // `y` is the partition variable and is free, so every request reaches
    // every shard.
    let spec = PartitionSpec::new()
        .hash("R", 1)
        .hash("S", 0)
        .replicate("T");
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
    let policy = Policy::Fixed(Strategy::Tradeoff {
        tau: 2.0,
        weights: Some(vec![0.5, 0.5, 0.5]),
    });
    for shards in 1..=4 {
        let sharded = ShardedEngine::new(triangle_db(3), spec.clone(), config(shards)).unwrap();
        sharded.register("v", view.clone(), policy.clone()).unwrap();
        let serve = |service: &dyn BlockService, x: u64| {
            work_of(|| {
                service
                    .serve_into("v", &[x], &mut AnswerBlock::new())
                    .unwrap();
            })
        };
        let fanned: u64 = (0..6).map(|x| serve(&sharded, x)).sum();
        let per_shard: u64 = (0..shards)
            .flat_map(|s| (0..6).map(move |x| (s, x)))
            .map(|(s, x)| serve(sharded.shard(s), x))
            .sum();
        assert!(fanned > 0, "shards {shards}");
        assert_eq!(fanned, per_shard, "shards {shards}");
    }
}
