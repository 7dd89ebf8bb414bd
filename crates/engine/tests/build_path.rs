//! Build-path acceptance: plan-once sharded registration.
//!
//! [`ShardedEngine::register`] solves strategy selection exactly once
//! (against the planning snapshot) and ships the resolved plan to all
//! shards. These tests pin
//!
//! 1. the **count**: one sharded register with an auto or budget policy
//!    performs exactly one selection solve, however many shards build
//!    from it, and every shard builds the selection's plan;
//! 2. the **equivalence**: shared-plan registration answers tuple-for-tuple
//!    like an unsharded engine (which plans against the same global
//!    statistics), across shard counts, policies, and access patterns.
//!
//! The selection-solve counter is process-global, so every test here
//! serializes on one mutex — the counts must not see another test's
//! solves.

use cqc_common::AnswerBlock;
use cqc_core::Strategy;
use cqc_engine::{policy, BlockService, Engine, Policy, ShardedEngine, ShardedEngineConfig};
use cqc_query::parser::parse_adorned;
use cqc_storage::Database;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn path_db(seed: u64) -> Database {
    let mut rng = cqc_workload::rng(seed);
    let mut db = Database::new();
    for name in ["R", "S"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 300, 20))
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

/// The acceptance property of the ISSUE: for `S > 1` shards,
/// `ShardedEngine::register` runs strategy selection exactly once.
#[test]
fn sharded_register_solves_selection_exactly_once() {
    let _guard = counter_lock();
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bff").unwrap();
    for shards in [2usize, 4, 7] {
        let sharded = ShardedEngine::for_view(path_db(11), &view, config(shards)).unwrap();
        let before = policy::selection_solves();
        sharded
            .register("v", view.clone(), Policy::default())
            .unwrap();
        assert_eq!(
            policy::selection_solves() - before,
            1,
            "{shards} shards must share one selection solve"
        );
    }
}

/// The budget tokens are planned once too: `budget:<b>` resolves to
/// MinDelayCover's cover and τ, `decomposed:<b>` to a decomposition and
/// its δ, both against the planning snapshot — so every shard builds the
/// selection's plan instead of re-running the §6 program on its own slice,
/// and the sharded engine still answers what an unsharded one does.
#[test]
fn budget_tokens_are_planned_once() {
    let _guard = counter_lock();
    let mut rng = cqc_workload::rng(31);
    let mut db = Database::new();
    for name in ["R", "S", "T"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 300, 30))
            .unwrap();
    }
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
    let oracle = Engine::new(db.clone());
    let sharded = ShardedEngine::for_view(db, &view, config(2)).unwrap();
    for token in ["budget:1.2", "decomposed:1.5"] {
        let policy = Policy::parse(token).unwrap();
        let before = policy::selection_solves();
        sharded
            .register(token, view.clone(), policy.clone())
            .unwrap();
        assert_eq!(
            policy::selection_solves() - before,
            1,
            "{token}: 2 shards must share one selection solve"
        );
        oracle.register(token, view.clone(), policy).unwrap();
        for s in 0..sharded.num_shards() {
            let shard = sharded.shard(s);
            let explained = shard.explain(token).unwrap();
            match &shard.view(token).unwrap().selection.strategy {
                Strategy::Tradeoff {
                    tau,
                    weights: Some(weights),
                } => {
                    let built = shard.theorem1_stats(token).unwrap().expect("theorem 1");
                    assert_eq!(built.tau, *tau, "{token}: shard {s}'s τ");
                    // `explain` prints the cover at two decimals.
                    let cover: Vec<f64> = weights
                        .iter()
                        .map(|w| (w * 100.0).round() / 100.0)
                        .collect();
                    assert!(
                        explained.contains(&format!("cover = {cover:?}")),
                        "{token}: shard {s} built another cover than {cover:?}: {explained}"
                    );
                }
                Strategy::DecomposedExplicit { td, delta } => {
                    let max_delta = delta.iter().copied().fold(0.0, f64::max);
                    let bags = format!("theorem 2: {} bags", td.len() - 1);
                    let delay = format!("max δ = {max_delta:.3}");
                    assert!(
                        explained.contains(&bags) && explained.contains(&delay),
                        "{token}: shard {s} built another decomposition ({bags}, {delay}): \
                         {explained}"
                    );
                }
                other => panic!("{token}: shard {s} holds an unresolved plan {other:?}"),
            }
        }
        for x in 0..30u64 {
            assert_eq!(
                sorted(served(&sharded, token, &[x]).unwrap()),
                sorted(served(&oracle, token, &[x]).unwrap()),
                "{token}: x = {x}"
            );
        }
    }
}

/// A fixed policy never solves: the passthrough must stay free.
#[test]
fn fixed_policies_never_solve_selection() {
    let _guard = counter_lock();
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bff").unwrap();
    let sharded = ShardedEngine::for_view(path_db(11), &view, config(4)).unwrap();
    let before = policy::selection_solves();
    sharded
        .register(
            "v",
            view.clone(),
            Policy::Fixed(Strategy::Tradeoff {
                tau: 4.0,
                weights: None,
            }),
        )
        .unwrap();
    assert_eq!(policy::selection_solves(), before);
}

/// A duplicate register fails before paying for a selection solve (the
/// fail-fast duplicate check precedes planning).
#[test]
fn duplicate_register_fails_before_selection() {
    let _guard = counter_lock();
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bff").unwrap();
    let sharded = ShardedEngine::for_view(path_db(11), &view, config(3)).unwrap();
    sharded
        .register("v", view.clone(), Policy::default())
        .unwrap();
    let before = policy::selection_solves();
    assert!(sharded
        .register("v", view.clone(), Policy::default())
        .is_err());
    assert_eq!(
        policy::selection_solves(),
        before,
        "duplicate must not re-solve selection"
    );
    // The original registration must still serve.
    assert!(served(&sharded, "v", &[1]).is_ok());
}

/// Shared-plan registration ≡ unsharded engine, tuple for tuple, across
/// shard counts, policies, and patterns.
#[test]
fn shared_plan_register_matches_per_shard_register() {
    let _guard = counter_lock();
    let query = "Q(x,y,z) :- R(x,y), S(y,z)";
    let policies: Vec<(&str, Policy)> = vec![
        ("auto", Policy::default()),
        (
            "auto-budget",
            Policy::Auto {
                space_budget_exp: Some(1.1),
            },
        ),
        (
            "theorem-1",
            Policy::Fixed(Strategy::Tradeoff {
                tau: 3.0,
                weights: None,
            }),
        ),
    ];
    for pattern in ["bff", "bfb"] {
        let view = parse_adorned(query, pattern).unwrap();
        let nb = pattern.chars().filter(|c| *c == 'b').count();
        let mut requests: Vec<Vec<u64>> = vec![vec![]];
        for _ in 0..nb {
            requests = requests
                .iter()
                .flat_map(|r| {
                    (0..20u64).step_by(4).map(move |v| {
                        let mut r2 = r.clone();
                        r2.push(v);
                        r2
                    })
                })
                .collect();
        }
        for (tag, policy) in &policies {
            let db = path_db(23);
            let oracle = Engine::new(db.clone());
            oracle.register("v", view.clone(), policy.clone()).unwrap();
            for shards in [1usize, 3, 4] {
                let shared = ShardedEngine::for_view(db.clone(), &view, config(shards)).unwrap();
                shared.register("v", view.clone(), policy.clone()).unwrap();
                for bound in &requests {
                    let expect = sorted(served(&oracle, "v", bound).unwrap());
                    let got_shared = sorted(served(&shared, "v", bound).unwrap());
                    assert_eq!(
                        got_shared, expect,
                        "shared-plan {tag} {pattern} {shards} shards {bound:?}"
                    );
                }
            }
        }
    }
}

/// Registrations after an update select against refreshed planning
/// statistics and still answer correctly (the planning snapshot follows
/// the shards' data).
#[test]
fn register_after_update_uses_fresh_planning_snapshot() {
    let _guard = counter_lock();
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bff").unwrap();
    let db = path_db(59);
    let sharded = ShardedEngine::for_view(db.clone(), &view, config(3)).unwrap();
    let mut delta = cqc_storage::Delta::new();
    for i in 0..40u64 {
        delta.insert("R", vec![i % 20, (i * 7) % 20]);
        delta.insert("S", vec![(i * 3) % 20, i % 20]);
    }
    sharded.update(&delta).unwrap();
    assert_eq!(sharded.planning_db().size(), {
        let mut oracle_db = db.clone();
        oracle_db.apply(&delta).unwrap();
        oracle_db.size()
    });
    sharded
        .register("v", view.clone(), Policy::default())
        .unwrap();
    let mut oracle_db = db;
    oracle_db.apply(&delta).unwrap();
    let oracle = Engine::new(oracle_db);
    oracle
        .register("v", view.clone(), Policy::default())
        .unwrap();
    for x in (0..20u64).step_by(3) {
        assert_eq!(
            sorted(served(&sharded, "v", &[x]).unwrap()),
            sorted(served(&oracle, "v", &[x]).unwrap()),
            "x = {x}"
        );
    }
}
