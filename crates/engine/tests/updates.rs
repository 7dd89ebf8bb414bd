//! Integration tests for the versioned-database update path: epoch
//! stamping, catalog invalidation (lazy and eager), delta maintenance
//! versus rebuild, and serving concurrently with writers.

use cqc_common::value::Tuple;
use cqc_common::AnswerBlock;
use cqc_core::Strategy;
use cqc_engine::{BlockService, Engine, Policy};
use cqc_join::naive::evaluate_view;
use cqc_query::parser::parse_adorned;
use cqc_query::AdornedView;
use cqc_storage::{Database, Delta, Relation};
use cqc_workload::{mixed_delta, recombination_delta};
use std::sync::atomic::{AtomicBool, Ordering};

const TRIANGLE: &str = "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)";

fn triangle_db(rows: usize, domain: u64, seed: u64) -> Database {
    let mut db = Database::new();
    let mut rng = cqc_workload::rng(seed);
    for name in ["R", "S", "T"] {
        db.add(cqc_workload::uniform_relation(
            &mut rng, name, 2, rows, domain,
        ))
        .unwrap();
    }
    db
}

fn theorem1_policy() -> Policy {
    Policy::Fixed(Strategy::Tradeoff {
        tau: 2.0,
        weights: Some(vec![0.5, 0.5, 0.5]),
    })
}

/// The served stream, sorted — Theorem 2 views serve in pre-order of their
/// bags — and never deduplicated: a repeated answer must reach the
/// comparison with the naive join.
fn sorted_answer(engine: &Engine, view: &str, vb: &[u64]) -> Vec<Tuple> {
    let mut block = AnswerBlock::new();
    engine.serve_into(view, vb, &mut block).unwrap();
    let mut a = block.to_tuples();
    a.sort_unstable();
    a
}

/// The regression the versioning work exists for: mutating the database
/// after registration must not serve answers computed from the old
/// snapshot. Before epochs, the cached representation would have answered
/// without the inserted triangle.
#[test]
fn update_after_register_is_not_served_stale() {
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
    db.add(Relation::from_pairs("S", vec![(2, 3)])).unwrap();
    db.add(Relation::from_pairs("T", vec![(3, 1)])).unwrap();
    let engine = Engine::new(db);
    engine
        .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
        .unwrap();
    assert_eq!(sorted_answer(&engine, "tri", &[1, 3]), vec![vec![2u64]]);
    assert!(sorted_answer(&engine, "tri", &[5, 7]).is_empty());

    // Insert a brand-new triangle 5 → 6 → 7 → 5.
    let mut delta = Delta::new();
    delta.insert("R", vec![5, 6]);
    delta.insert("S", vec![6, 7]);
    delta.insert("T", vec![7, 5]);
    let before_epoch = engine.epoch();
    let report = engine.update(&delta).unwrap();
    assert_eq!(report.epoch, before_epoch + 1);

    // The representation answers with the new data — the old cached entry
    // is gone or replaced, never served.
    assert_eq!(sorted_answer(&engine, "tri", &[5, 7]), vec![vec![6u64]]);
    let view = parse_adorned(TRIANGLE, "bfb").unwrap();
    for x in 0..8u64 {
        for z in 0..8u64 {
            assert_eq!(
                sorted_answer(&engine, "tri", &[x, z]),
                evaluate_view(&view, &engine.db(), &[x, z]).unwrap(),
                "vb ({x},{z})"
            );
        }
    }
}

/// The `add_relation`-after-register footgun: the mutation now routes
/// through the versioning path, so the epoch bumps and the cached entry is
/// invalidated on its next lookup instead of being trusted forever.
#[test]
fn add_relation_after_register_invalidates_catalog() {
    let mut engine = Engine::new(triangle_db(60, 12, 3));
    engine
        .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
        .unwrap();
    let epoch_before = engine.epoch();
    let builds_before = engine.catalog_stats().builds;
    assert_eq!(engine.catalog_stats().invalidations, 0);

    engine
        .add_relation(Relation::from_pairs("Extra", vec![(1, 2)]))
        .unwrap();
    assert_eq!(engine.epoch(), epoch_before + 1, "add bumps the epoch");

    // The next lookup sees the stale stamp, invalidates, and rebuilds from
    // the current snapshot.
    let view = parse_adorned(TRIANGLE, "bfb").unwrap();
    let expect = evaluate_view(&view, &engine.db(), &[1, 2]).unwrap();
    assert_eq!(sorted_answer(&engine, "tri", &[1, 2]), expect);
    let stats = engine.catalog_stats();
    assert_eq!(stats.invalidations, 1, "{stats:?}");
    assert_eq!(stats.builds, builds_before + 1, "{stats:?}");
    // Once rebuilt, serving is hits again.
    sorted_answer(&engine, "tri", &[2, 3]);
    assert_eq!(engine.catalog_stats().builds, builds_before + 1);
}

/// Acceptance: registered Theorem 1 views answered after `update` match a
/// from-scratch rebuild (here: the naive oracle on the new snapshot) over
/// random deltas, and small in-domain deltas take the maintain path — the
/// rebuild counter stays 0.
#[test]
fn small_deltas_take_the_maintain_path_and_stay_exact() {
    for seed in 0..6u64 {
        let engine = Engine::new(triangle_db(70, 12, seed * 17 + 1));
        engine
            .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
            .unwrap();
        let view = parse_adorned(TRIANGLE, "bfb").unwrap();
        let mut rng = cqc_workload::rng(seed * 5 + 2);
        let mut maintained_total = 0usize;
        for _round in 0..4 {
            let delta = recombination_delta(&mut rng, &engine.db(), &["R", "S", "T"], 3);
            let report = engine.update(&delta).unwrap();
            assert_eq!(
                report.rebuilt, 0,
                "small in-domain deltas must not rebuild (seed {seed}): {report:?}"
            );
            maintained_total += report.maintained;
            for x in 0..12u64 {
                for z in 0..12u64 {
                    assert_eq!(
                        sorted_answer(&engine, "tri", &[x, z]),
                        evaluate_view(&view, &engine.db(), &[x, z]).unwrap(),
                        "seed {seed}, vb ({x},{z})"
                    );
                }
            }
        }
        // Recombination deltas occasionally contain only duplicates (a
        // no-op update); across four rounds at least one must maintain.
        assert!(maintained_total >= 1, "seed {seed}");
        assert_eq!(engine.update_stats().rebuilt, 0);
        assert_eq!(engine.catalog_stats().maintained as usize, maintained_total);
    }
}

/// Mixed insert/delete deltas ride the same maintain path: domain-safe
/// removals (no active-domain shrink) are absorbed without a rebuild, and
/// every answer matches the naive oracle on the post-delta snapshot. This
/// also pins the maintain threshold counting removed tuples — a
/// remove-only delta must register as touching the view.
///
/// A τ-twin rides along: maintenance must leave the two views holding the
/// same post-delta index allocations (the store merges each index once),
/// exactly as two fresh builds would share them.
#[test]
fn mixed_deltas_maintain_and_stay_exact() {
    for seed in [0u64, 3, 8] {
        let engine = Engine::new(triangle_db(70, 12, seed * 11 + 5));
        engine
            .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
            .unwrap();
        engine
            .register_text("twin", TRIANGLE, "bfb", Policy::parse("tau:64").unwrap())
            .unwrap();
        let allocations = |name: &str| -> std::collections::BTreeSet<_> {
            let indexes = engine.base_indexes(name).unwrap();
            indexes.iter().map(std::sync::Arc::as_ptr).collect()
        };
        let view = parse_adorned(TRIANGLE, "bfb").unwrap();
        let mut rng = cqc_workload::rng(seed + 40);
        let mut removed_total = 0usize;
        for _round in 0..4 {
            let delta = mixed_delta(&mut rng, &engine.db(), &["R", "S", "T"], 2, 2);
            removed_total += delta.remove_groups().map(|(_, ts)| ts.len()).sum::<usize>();
            let report = engine.update(&delta).unwrap();
            assert_eq!(
                report.rebuilt, 0,
                "domain-safe mixed deltas must not rebuild (seed {seed}): {report:?}"
            );
            let held = allocations("tri");
            assert_eq!(held, allocations("twin"), "seed {seed}: twins un-shared");
            assert_eq!(held.len(), 3, "seed {seed}: one trie per atom");
            for x in 0..12u64 {
                for z in 0..12u64 {
                    assert_eq!(
                        sorted_answer(&engine, "tri", &[x, z]),
                        evaluate_view(&view, &engine.db(), &[x, z]).unwrap(),
                        "seed {seed}, vb ({x},{z})"
                    );
                }
            }
        }
        assert!(
            removed_total > 0,
            "seed {seed}: no removals — test is vacuous"
        );
        assert_eq!(engine.update_stats().rebuilt, 0);
    }
}

/// Deltas introducing out-of-domain values (the rank grid shifts) and
/// deltas above the size threshold must fall back to an eager rebuild —
/// and still answer exactly.
#[test]
fn domain_growth_and_large_deltas_rebuild() {
    let engine = Engine::new(triangle_db(50, 10, 9));
    engine
        .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
        .unwrap();

    // Out-of-domain value: rebuild.
    let mut delta = Delta::new();
    delta.insert("R", vec![3, 777]);
    let report = engine.update(&delta).unwrap();
    assert_eq!(report.maintained, 0, "{report:?}");
    assert_eq!(report.rebuilt, 1, "{report:?}");
    let view = parse_adorned(TRIANGLE, "bfb").unwrap();
    let expect = evaluate_view(&view, &engine.db(), &[3, 2]).unwrap();
    assert_eq!(sorted_answer(&engine, "tri", &[3, 2]), expect);

    // A delta far above the maintain fraction: rebuild.
    let mut big = Delta::new();
    for i in 0..200u64 {
        big.insert("R", vec![i % 10, (i * 3) % 10]);
    }
    let report = engine.update(&big).unwrap();
    if report.epoch > 0 && report.maintained + report.rebuilt > 0 {
        assert_eq!(report.maintained, 0, "{report:?}");
    }
}

/// A delta that touches none of a view's relations restamps the entry:
/// no rebuild, no maintenance, still served from cache.
#[test]
fn untouched_views_are_restamped_not_rebuilt() {
    let mut db = triangle_db(50, 10, 11);
    db.add(Relation::from_pairs("Other", vec![(1, 2), (2, 3)]))
        .unwrap();
    let engine = Engine::new(db);
    engine
        .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
        .unwrap();
    let builds_before = engine.catalog_stats().builds;

    let mut delta = Delta::new();
    delta.insert("Other", vec![7, 8]);
    let report = engine.update(&delta).unwrap();
    assert_eq!(report.restamped, 1, "{report:?}");
    assert_eq!(report.maintained, 0, "{report:?}");
    assert_eq!(report.rebuilt, 0, "{report:?}");

    sorted_answer(&engine, "tri", &[1, 2]);
    let stats = engine.catalog_stats();
    assert_eq!(stats.builds, builds_before, "restamp keeps the entry hot");
    assert_eq!(stats.invalidations, 0);
}

/// The maintain/rebuild size threshold counts only the tuples landing in
/// the view's own relations: a delta flooding an unrelated relation must
/// not push the view off its maintain path.
#[test]
fn flood_of_unrelated_relation_keeps_maintain_path() {
    let mut db = triangle_db(60, 12, 31);
    db.add(Relation::from_pairs("Other", vec![(1, 2)])).unwrap();
    let engine = Engine::new(db);
    engine
        .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
        .unwrap();

    // Far more tuples than the maintain fraction allows — but all of them
    // in `Other`, plus one guaranteed-new in-domain tuple for R (first
    // absent recombination of existing column values).
    let mut delta = Delta::new();
    {
        let db = engine.db();
        let r = db.get("R").unwrap();
        let fresh = r
            .column_values(0)
            .iter()
            .flat_map(|&a| r.column_values(1).into_iter().map(move |b| vec![a, b]))
            .find(|t| !r.contains(t))
            .expect("a sparse relation has absent recombinations");
        delta.insert("R", fresh);
    }
    for i in 0..500u64 {
        delta.insert("Other", vec![i, i + 1]);
    }
    let report = engine.update(&delta).unwrap();
    assert_eq!(report.rebuilt, 0, "{report:?}");
    assert_eq!(report.maintained, 1, "{report:?}");
    let view = parse_adorned(TRIANGLE, "bfb").unwrap();
    for x in 0..6u64 {
        assert_eq!(
            sorted_answer(&engine, "tri", &[x, (x + 2) % 6]),
            evaluate_view(&view, &engine.db(), &[x, (x + 2) % 6]).unwrap()
        );
    }
}

/// Aliased registrations share one catalog entry; an update reconciles the
/// shared key exactly once.
#[test]
fn aliased_views_reconcile_once() {
    let engine = Engine::new(triangle_db(60, 12, 13));
    engine
        .register_text("a", TRIANGLE, "bfb", theorem1_policy())
        .unwrap();
    engine
        .register_text(
            "b",
            "View(u,v,w) :- T(w,u), R(u,v), S(v,w)",
            "bfb",
            theorem1_policy(),
        )
        .unwrap();
    assert_eq!(engine.catalog_stats().entries, 1);

    let mut rng = cqc_workload::rng(4);
    let delta = recombination_delta(&mut rng, &engine.db(), &["R"], 2);
    let report = engine.update(&delta).unwrap();
    assert!(
        report.maintained + report.rebuilt + report.restamped <= 1,
        "shared key must be reconciled at most once: {report:?}"
    );
    assert_eq!(
        sorted_answer(&engine, "a", &[1, 2]),
        sorted_answer(&engine, "b", &[1, 2])
    );
}

/// The eager sweep drops stale entries without waiting for a lookup.
#[test]
fn invalidate_stale_sweeps_eagerly() {
    let mut engine = Engine::new(triangle_db(50, 10, 15));
    engine
        .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
        .unwrap();
    assert_eq!(engine.invalidate_stale(), 0, "fresh entries survive");
    engine
        .add_relation(Relation::from_pairs("Extra", vec![(9, 9)]))
        .unwrap();
    assert_eq!(engine.invalidate_stale(), 1, "stale entry reclaimed");
    assert_eq!(engine.catalog_stats().entries, 0);
    // Serving transparently rebuilds from the current snapshot.
    let view = parse_adorned(TRIANGLE, "bfb").unwrap();
    let expect = evaluate_view(&view, &engine.db(), &[1, 2]).unwrap();
    assert_eq!(sorted_answer(&engine, "tri", &[1, 2]), expect);
}

/// Every strategy has a maintain path now, materialize included: a small
/// delta is absorbed, while an oversized one (past the maintain-fraction
/// threshold) still falls back to an eager rebuild. Both answer the
/// post-delta result.
#[test]
fn materialize_maintains_small_deltas_rebuilds_large_ones() {
    let engine = Engine::new(triangle_db(50, 10, 19));
    engine
        .register_text("mat", TRIANGLE, "bfb", Policy::Fixed(Strategy::Materialize))
        .unwrap();
    let mut rng = cqc_workload::rng(6);
    // 9 touched tuples against |D| = 150: well under the default 0.2
    // fraction, so the entry is maintained in place.
    let delta = recombination_delta(&mut rng, &engine.db(), &["R", "S", "T"], 3);
    let report = engine.update(&delta).unwrap();
    if report.epoch > 0 && report.maintained + report.rebuilt + report.restamped > 0 {
        assert_eq!(report.maintained, 1, "{report:?}");
        assert_eq!(report.rebuilt, 0, "{report:?}");
    }
    // ~120 touched tuples blow the threshold: eager rebuild.
    let delta = recombination_delta(&mut rng, &engine.db(), &["R", "S", "T"], 40);
    let report = engine.update(&delta).unwrap();
    if report.epoch > 0 && report.maintained + report.rebuilt + report.restamped > 0 {
        assert_eq!(report.maintained, 0, "{report:?}");
        assert_eq!(report.rebuilt, 1, "{report:?}");
    }
    let view = parse_adorned(TRIANGLE, "bfb").unwrap();
    for x in 0..10u64 {
        assert_eq!(
            sorted_answer(&engine, "mat", &[x, (x + 1) % 10]),
            evaluate_view(&view, &engine.db(), &[x, (x + 1) % 10]).unwrap()
        );
    }
}

/// Bad deltas fail atomically: the database and catalog are untouched.
#[test]
fn failed_update_changes_nothing() {
    let engine = Engine::new(triangle_db(40, 10, 23));
    engine
        .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
        .unwrap();
    let epoch = engine.epoch();
    let size = engine.db().size();

    let mut delta = Delta::new();
    delta.insert("R", vec![1, 2]);
    delta.insert("Missing", vec![1]);
    assert!(engine.update(&delta).is_err());

    let mut delta = Delta::new();
    delta.insert("R", vec![1, 2, 3]); // arity mismatch
    assert!(engine.update(&delta).is_err());

    assert_eq!(engine.epoch(), epoch);
    assert_eq!(engine.db().size(), size);
    assert_eq!(engine.catalog_stats().invalidations, 0);
}

/// Concurrency acceptance: threads serving a view while another thread
/// applies deltas never observe a representation older than the epoch they
/// started at — with insert-only deltas, every answer must contain the
/// epoch-0 oracle and be contained in the final oracle — and nothing
/// panics.
#[test]
fn concurrent_serving_during_updates_is_monotone() {
    let engine = Engine::new(triangle_db(60, 10, 27));
    engine
        .register_text("tri", TRIANGLE, "bfb", theorem1_policy())
        .unwrap();
    let view: AdornedView = parse_adorned(TRIANGLE, "bfb").unwrap();
    let db0 = engine.db();

    let grid: Vec<[u64; 2]> = (0..6u64)
        .flat_map(|x| (0..6u64).map(move |z| [x, z]))
        .collect();
    let mut oracle0 = std::collections::HashMap::new();
    for vb in &grid {
        oracle0.insert(*vb, evaluate_view(&view, &db0, vb).unwrap());
    }

    let served: Vec<([u64; 2], Vec<Tuple>)> = std::thread::scope(|scope| {
        let engine = &engine;
        let grid = &grid;
        let updater = scope.spawn(move || {
            let mut rng = cqc_workload::rng(99);
            for _ in 0..8 {
                let delta = recombination_delta(&mut rng, &engine.db(), &["R", "S", "T"], 2);
                engine.update(&delta).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let servers: Vec<_> = (0..3)
            .map(|worker| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..120usize {
                        let vb = grid[(i * 7 + worker * 13) % grid.len()];
                        let started_at = engine.epoch();
                        let ans = sorted_answer(engine, "tri", &vb);
                        // The representation that answered can only be at
                        // or beyond the epoch observed before the request.
                        let repr = engine
                            .representation_epoch("tri")
                            .unwrap()
                            .unwrap_or(started_at);
                        assert!(
                            repr >= started_at,
                            "served representation regressed: {repr} < {started_at}"
                        );
                        out.push((vb, ans));
                    }
                    out
                })
            })
            .collect();
        updater.join().expect("updater panicked");
        servers
            .into_iter()
            .flat_map(|h| h.join().expect("server panicked"))
            .collect()
    });

    let db_final = engine.db();
    for (vb, ans) in served {
        let base = &oracle0[&vb];
        let fin = evaluate_view(&view, &db_final, &vb).unwrap();
        for t in base {
            assert!(
                ans.contains(t),
                "answer for {vb:?} lost a tuple of the epoch-start oracle"
            );
        }
        for t in &ans {
            assert!(
                fin.contains(t),
                "answer for {vb:?} contains a tuple beyond the final database"
            );
        }
    }
    // And the final state is exact.
    for vb in &grid {
        assert_eq!(
            sorted_answer(&engine, "tri", vb),
            evaluate_view(&view, &db_final, vb).unwrap()
        );
    }
}

/// Maintain, rebuild and restamp are decided by counts alone: one seeded
/// history of mixed deltas — an out-of-domain insert and a delta above
/// `0.2 · |D|` among them — reconciles identically on a quiet engine and on
/// one running beside two busy-spinning threads.
#[test]
fn update_decisions_do_not_depend_on_the_host() {
    let mut db = triangle_db(70, 12, 41);
    db.add(Relation::from_pairs("Other", vec![(1, 2), (2, 3), (3, 1)]))
        .unwrap();
    let mut history = Vec::new();
    let mut evolving = db.clone();
    let mut rng = cqc_workload::rng(42);
    for round in 0..12 {
        let delta = match round {
            4 => {
                let mut delta = Delta::new();
                delta.insert("R", vec![3, 777]);
                delta
            }
            8 => recombination_delta(&mut rng, &evolving, &["R", "S", "T"], 40),
            _ if round % 3 == 2 => mixed_delta(&mut rng, &evolving, &["Other"], 2, 1),
            _ => mixed_delta(&mut rng, &evolving, &["R", "S", "T"], 3, 2),
        };
        evolving.apply(&delta).unwrap();
        if round == 8 {
            let (big, size) = (delta.total_tuples(), evolving.size());
            assert!(big as f64 > 0.2 * size as f64, "{big} of {size}");
        }
        history.push(delta);
    }

    let replay = || {
        let engine = Engine::new(db.clone());
        for (name, token) in [
            ("tri", "tau:2"),
            ("mat", "materialize"),
            ("fac", "factorized"),
        ] {
            engine
                .register_text(name, TRIANGLE, "bfb", Policy::parse(token).unwrap())
                .unwrap();
        }
        engine
            .register_text("other", "Q(x,y) :- Other(x,y)", "bf", Policy::default())
            .unwrap();
        let reports: Vec<_> = history.iter().map(|d| engine.update(d).unwrap()).collect();
        let stats = engine.catalog_stats();
        (reports, stats.maintained, stats.builds)
    };
    let quiet = replay();

    /// Stops the spinners even when the replay beside them panics.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    let loaded = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let _stop = Stop(&stop);
        replay()
    });
    assert_eq!(quiet, loaded);

    let (reports, _, _) = &quiet;
    // Theorem 1's grid shifts under the out-of-domain value; the Theorem 2
    // views maintain through it.
    assert_eq!(reports[4].rebuilt, 1, "out of domain: {:?}", reports[4]);
    assert_eq!(
        reports[8].rebuilt, 3,
        "above the fraction: {:?}",
        reports[8]
    );
    assert!(reports.iter().any(|r| r.maintained > 0), "{reports:?}");
    assert!(reports.iter().any(|r| r.restamped > 0), "{reports:?}");
}

/// Epoch bookkeeping is visible and monotone through the public API.
#[test]
fn epochs_are_monotone_and_reported() {
    let mut engine = Engine::new(Database::new());
    assert_eq!(engine.epoch(), 0);
    engine
        .add_relation(Relation::from_pairs("R", vec![(1, 2)]))
        .unwrap();
    assert_eq!(engine.epoch(), 1);
    let mut delta = Delta::new();
    delta.insert("R", vec![2, 3]);
    assert_eq!(engine.update(&delta).unwrap().epoch, 2);
    // Duplicate-only deltas do not bump.
    assert_eq!(engine.update(&delta).unwrap().epoch, 2);
    assert_eq!(engine.update_stats().deltas, 1);

    engine
        .register_text("v", "Q(x,y) :- R(x,y)", "bf", Policy::default())
        .unwrap();
    assert_eq!(engine.representation_epoch("v").unwrap(), Some(2));
    assert!(engine.representation_epoch("nope").is_err());
}
