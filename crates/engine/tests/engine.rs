//! Integration tests for the serve-many engine: catalog hit/miss/eviction
//! semantics, build-once guarantees, and multi-threaded batch serving.

use cqc_common::error::CqcError;
use cqc_common::value::Tuple;
use cqc_common::AnswerBlock;
use cqc_core::Strategy;
use cqc_engine::{stripe_requests, BlockService, Engine, EngineConfig, Policy};
use cqc_join::naive::evaluate_view;
use cqc_query::parser::parse_adorned;
use cqc_storage::{Database, Relation};
use cqc_workload::{queries, random_requests};

fn triangle_db(rows: usize, seed: u64) -> Database {
    let mut db = Database::new();
    let mut rng = cqc_workload::rng(seed);
    let domain = (rows as u64 / 4).max(6);
    for name in ["R", "S", "T"] {
        db.add(cqc_workload::uniform_relation(
            &mut rng, name, 2, rows, domain,
        ))
        .unwrap();
    }
    db
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

#[test]
fn engine_is_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
}

#[test]
fn register_once_serve_many_zero_rebuilds() {
    let db = triangle_db(120, 3);
    let engine = Engine::new(db);
    engine
        .register_text(
            "tri",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "bfb",
            Policy::default(),
        )
        .unwrap();
    assert_eq!(engine.catalog_stats().builds, 1, "registration builds once");

    let builds_after_register = engine.catalog_stats().builds;
    for x in 0..20u64 {
        served(&engine, "tri", &[x % 7, (x + 2) % 7]).unwrap();
    }
    let stats = engine.catalog_stats();
    assert_eq!(
        stats.builds, builds_after_register,
        "cache-hit serving must perform zero representation rebuilds"
    );
    assert!(stats.hits >= 20);
}

#[test]
fn answers_match_naive_oracle() {
    let db = triangle_db(90, 11);
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
    let engine = Engine::new(db);
    engine
        .register("tri", view.clone(), Policy::default())
        .unwrap();
    for x in 0..15u64 {
        let req = [x, (x * 3 + 1) % 20];
        let expect = evaluate_view(&view, &engine.db(), &req).unwrap();
        // The default policy may pick Theorem 2 (pre-order of its bags):
        // sorted, never deduplicated.
        let mut got = served(&engine, "tri", &req).unwrap();
        got.sort_unstable();
        assert_eq!(got, expect, "request {req:?}");
    }
}

#[test]
fn aliased_registrations_share_one_build() {
    let db = triangle_db(60, 5);
    let engine = Engine::new(db);
    // Same view modulo query name, variable spelling, and atom order, same
    // strategy → same catalog key → one build.
    engine
        .register_text(
            "a",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "bfb",
            Policy::default(),
        )
        .unwrap();
    engine
        .register_text(
            "b",
            "View(u,v,w) :- T(w,u), R(u,v), S(v,w)",
            "bfb",
            Policy::default(),
        )
        .unwrap();
    let stats = engine.catalog_stats();
    assert_eq!(stats.builds, 1, "aliases must share the representation");
    assert_eq!(stats.entries, 1);
    // And they answer identically.
    assert_eq!(
        served(&engine, "a", &[1, 2]).unwrap(),
        served(&engine, "b", &[1, 2]).unwrap()
    );
}

#[test]
fn distinct_strategies_get_distinct_entries() {
    let db = triangle_db(60, 5);
    let engine = Engine::new(db);
    engine
        .register_text(
            "mat",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "bfb",
            Policy::Fixed(Strategy::Materialize),
        )
        .unwrap();
    engine
        .register_text(
            "fac",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "bfb",
            Policy::Fixed(Strategy::Factorized),
        )
        .unwrap();
    assert_eq!(engine.catalog_stats().entries, 2);
    assert_eq!(engine.catalog_stats().builds, 2);
    // The `factorized` tag names a recipe; what it builds is Theorem 2.
    let explained = engine.explain("fac").unwrap();
    assert!(explained.contains("strategy: factorized"), "{explained}");
    assert!(
        explained.contains("theorem 2") && explained.contains("(0 delay-tuned"),
        "{explained}"
    );
}

#[test]
fn tight_budget_evicts_lru_and_rebuilds_on_demand() {
    let db = triangle_db(150, 9);
    // A budget far below one representation: every new view evicts the
    // previous one (the catalog always admits the newest entry).
    let engine = Engine::with_config(
        db,
        EngineConfig {
            catalog_budget_bytes: 1024,
        },
    );
    engine
        .register_text(
            "mat",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "bfb",
            Policy::Fixed(Strategy::Materialize),
        )
        .unwrap();
    engine
        .register_text(
            "dir",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "bfb",
            Policy::Fixed(Strategy::Direct),
        )
        .unwrap();
    let s = engine.catalog_stats();
    assert_eq!(s.builds, 2);
    assert!(s.evictions >= 1, "tight budget must evict: {s:?}");
    assert_eq!(s.entries, 1, "only the newest survives: {s:?}");

    // Serving the evicted view rebuilds exactly once and evicts the other.
    served(&engine, "mat", &[1, 2]).unwrap();
    let s = engine.catalog_stats();
    assert_eq!(s.builds, 3, "evicted view rebuilds on demand: {s:?}");
    // The rebuilt `mat` is now resident: serving it again is a pure hit…
    served(&engine, "mat", &[1, 3]).unwrap();
    assert_eq!(engine.catalog_stats().builds, 3);
    // …while the displaced `dir` must rebuild (the two thrash under 1 KiB).
    served(&engine, "dir", &[1, 2]).unwrap();
    assert_eq!(engine.catalog_stats().builds, 4);
}

#[test]
fn eviction_prefers_high_bytes_per_unit_of_build_work() {
    // Two entries with identical byte footprints but very different
    // (fabricated) build work: under pressure the catalog must evict the
    // one that is cheap to rebuild, not the least recently used one.
    use cqc_engine::{Catalog, CatalogKey};
    use std::sync::Arc;

    let db = triangle_db(120, 5);
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
    let build =
        || Arc::new(cqc_core::CompressedView::build(&view, &db, Strategy::Materialize).unwrap());
    let key = |tag: &str| CatalogKey {
        normalized_query: view.query().normalized_text(),
        pattern: view.pattern(),
        strategy_tag: tag.to_string(),
    };
    let (a, b, c) = (build(), build(), build());
    let bytes = std::mem::size_of::<cqc_core::CompressedView>()
        + cqc_common::HeapSize::heap_bytes(a.as_ref());
    // Budget fits exactly two entries; the third insertion forces one out.
    let catalog = Catalog::new(2 * bytes + bytes / 2);
    // `expensive` counted 10⁹ units of build work, `cheap` 10⁴ — same
    // bytes, so the bytes-per-unit-of-work score dooms `cheap`.
    catalog.insert(key("expensive"), a, 0, 1_000_000_000);
    catalog.insert(key("cheap"), b, 0, 10_000);
    // Make `expensive` the LRU victim candidate: touch `cheap` afterwards,
    // so plain recency would evict `expensive` instead.
    assert!(catalog.get(&key("expensive"), 0).is_some());
    assert!(catalog.get(&key("cheap"), 0).is_some());
    assert!(catalog.get(&key("cheap"), 0).is_some());

    catalog.insert(key("third"), c, 0, 500_000);
    assert_eq!(catalog.stats().evictions, 1);
    assert!(
        catalog.contains(&key("expensive")),
        "the slow-to-rebuild entry must survive: {:?}",
        catalog.stats()
    );
    assert!(
        !catalog.contains(&key("cheap")),
        "the cheap-to-rebuild entry is the cost-aware victim"
    );
    assert!(catalog.contains(&key("third")), "newest always admitted");
}

/// The same rule on real builds: `direct` (Theorem 1 at τ = ∞, no join at
/// build time) and `tau:2` (a tree and a dictionary, decided by count
/// probes and capped runs, whose seeks count as build work like any
/// other) over the same triangle, `gen triangle 400 7`: skewed, so that
/// `tau:2` stores pairs heavy by work (on a small uniform triangle every
/// pair's run finishes under the cap and it holds what `direct` holds).
/// `tau:2` holds more bytes and is the least recently used, so bytes alone
/// and LRU alone would both evict it; its build counts far more work per
/// byte, so `direct` is the victim — on every run and every host, since
/// nothing here reads a clock.
#[test]
fn eviction_on_real_builds_follows_counted_work() {
    const QUERY: &str = "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)";
    let views = [("tau", "tau:2"), ("dir", "direct"), ("mat", "materialize")];
    let register = |engine: &Engine, (name, token): (&str, &str)| {
        engine
            .register_text(name, QUERY, "bff", Policy::parse(token).unwrap())
            .unwrap();
        engine.catalog_stats().resident_bytes
    };
    // Each entry's bytes, from an engine that evicts nothing.
    let db = || {
        let mut db = Database::new();
        for r in cqc_workload::triangle_relations(7, 400).0 {
            db.add(r).unwrap();
        }
        db
    };
    let probe = Engine::new(db());
    let tau_bytes = register(&probe, views[0]);
    let dir_bytes = register(&probe, views[1]) - tau_bytes;
    let all_bytes = register(&probe, views[2]);
    assert!(tau_bytes > dir_bytes, "{tau_bytes} vs {dir_bytes}");

    // One byte short of all three: the third registration evicts one.
    let engine = Engine::with_config(
        db(),
        EngineConfig {
            catalog_budget_bytes: all_bytes - 1,
        },
    );
    for view in views {
        register(&engine, view);
    }
    let s = engine.catalog_stats();
    assert_eq!(s.evictions, 1, "{s:?}");
    assert_eq!(engine.representation_epoch("dir").unwrap(), None, "{s:?}");
    assert!(engine.representation_epoch("tau").unwrap().is_some());
    assert!(engine.representation_epoch("mat").unwrap().is_some());
}

#[test]
fn generous_budget_never_evicts() {
    let db = triangle_db(100, 21);
    let engine = Engine::new(db);
    for (name, pattern) in [("v1", "bfb"), ("v2", "bbf"), ("v3", "fff")] {
        engine
            .register_text(
                name,
                "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
                pattern,
                Policy::default(),
            )
            .unwrap();
    }
    for _ in 0..5 {
        served(&engine, "v1", &[1, 2]).unwrap();
        served(&engine, "v2", &[1, 2]).unwrap();
        served(&engine, "v3", &[]).unwrap();
    }
    let s = engine.catalog_stats();
    assert_eq!(s.evictions, 0);
    assert_eq!(s.entries, 3);
    assert_eq!(s.builds, 3);
}

/// Serves `bounds` against `view` from `threads` concurrent readers of one
/// engine, keeping each request's answers.
fn serve_striped(
    engine: &Engine,
    view: &str,
    bounds: &[Vec<u64>],
    threads: usize,
) -> Vec<Vec<Tuple>> {
    stripe_requests(bounds.len(), threads, |i| {
        let mut block = AnswerBlock::new();
        let pushed = engine.serve_into(view, &bounds[i], &mut block)?;
        assert_eq!(pushed, block.len(), "returned count equals the pushes");
        Ok(block.to_tuples())
    })
    .unwrap()
}

#[test]
fn striped_readers_match_sequential_across_threads() {
    let db = triangle_db(200, 17);
    let view = queries::triangle("bfb").unwrap();
    let engine = Engine::new(db);
    engine
        .register("tri", view.clone(), Policy::default())
        .unwrap();

    let mut rng = cqc_workload::rng(99);
    let requests = random_requests(&mut rng, &view, &engine.db(), 300);

    let sequential: Vec<Vec<Tuple>> = requests
        .iter()
        .map(|bound| served(&engine, "tri", bound).unwrap())
        .collect();
    let builds_before = engine.catalog_stats().builds;

    for threads in [2, 4, 8] {
        let served = serve_striped(&engine, "tri", &requests, threads);
        assert_eq!(served.len(), requests.len());
        for (i, (s, expect)) in served.iter().zip(&sequential).enumerate() {
            assert_eq!(s, expect, "request {i} differs on {threads} threads");
        }
    }
    assert_eq!(
        engine.catalog_stats().builds,
        builds_before,
        "concurrent readers must not rebuild"
    );
}

#[test]
fn striped_serving_on_star_workload() {
    // The other acceptance workload: a star join, all-bound-but-one.
    let mut db = Database::new();
    let mut rng = cqc_workload::rng(31);
    for i in 1..=3 {
        db.add(cqc_workload::uniform_relation(
            &mut rng,
            &format!("R{i}"),
            2,
            150,
            30,
        ))
        .unwrap();
    }
    let view = queries::star(3, "bbbf").unwrap();
    let engine = Engine::new(db);
    engine
        .register("star", view.clone(), Policy::default())
        .unwrap();
    let mut rng = cqc_workload::rng(32);
    let requests = random_requests(&mut rng, &view, &engine.db(), 200);
    let sequential = serve_striped(&engine, "star", &requests, 1);
    let parallel = serve_striped(&engine, "star", &requests, 4);
    assert_eq!(sequential, parallel);
    let s = engine.catalog_stats();
    assert_eq!(s.builds, 1, "one build serves every thread: {s:?}");
}

#[test]
fn unknown_view_and_duplicate_registration_are_actionable() {
    let db = triangle_db(30, 1);
    let engine = Engine::new(db);
    let err = served(&engine, "nope", &[1]).unwrap_err();
    assert!(
        matches!(err, CqcError::UnknownView(ref n) if n == "nope"),
        "{err}"
    );

    engine
        .register_text(
            "tri",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "bfb",
            Policy::default(),
        )
        .unwrap();
    let err = engine
        .register_text(
            "tri",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "fff",
            Policy::default(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("already registered"), "{err}");
}

#[test]
fn build_failures_carry_view_and_strategy() {
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
    let engine = Engine::new(db);
    // S is missing from the database: selection/build must fail and the
    // error must name the view.
    let err = engine
        .register_text(
            "broken",
            "Q(x,y,z) :- R(x,y), S(y,z)",
            "bff",
            Policy::default(),
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("broken"), "{msg}");
    assert!(msg.contains('S'), "{msg}");

    // A bad fixed strategy names both the view and the strategy tag.
    let err = engine
        .register_text(
            "badtau",
            "Q(x,y) :- R(x,y)",
            "bf",
            Policy::Fixed(Strategy::Tradeoff {
                tau: 0.5,
                weights: None,
            }),
        )
        .unwrap_err();
    match &err {
        CqcError::ViewBuild { view, strategy, .. } => {
            assert_eq!(view, "badtau");
            assert!(strategy.contains("theorem-1"), "{strategy}");
        }
        other => panic!("expected ViewBuild, got {other}"),
    }
}

#[test]
fn failed_registration_can_be_retried() {
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3)]))
        .unwrap();
    let engine = Engine::new(db);
    // First attempt fails (τ < 1) — the name must not stay registered.
    let err = engine
        .register_text(
            "v",
            "Q(x,y) :- R(x,y)",
            "bf",
            Policy::Fixed(Strategy::Tradeoff {
                tau: 0.5,
                weights: None,
            }),
        )
        .unwrap_err();
    assert!(matches!(err, CqcError::ViewBuild { .. }), "{err}");
    assert!(
        engine.view("v").is_err(),
        "failed registration must roll back"
    );
    // Retrying with a valid strategy succeeds.
    engine
        .register_text("v", "Q(x,y) :- R(x,y)", "bf", Policy::default())
        .unwrap();
    assert_eq!(served(&engine, "v", &[1]).unwrap(), vec![vec![2]]);
}

#[test]
fn auto_policy_accepts_constants_like_fixed_strategies() {
    // Example 3 views (constants in atoms) must register under Auto just
    // as they do under a fixed strategy.
    let mut db = Database::new();
    db.add(Relation::new(
        "R",
        3,
        vec![vec![1, 2, 9], vec![1, 3, 9], vec![2, 2, 5]],
    ))
    .unwrap();
    let engine = Engine::new(db);
    engine
        .register_text("c", "Q(x,y) :- R(x,y,9)", "bf", Policy::default())
        .unwrap();
    assert_eq!(served(&engine, "c", &[1]).unwrap(), vec![vec![2], vec![3]]);
    // A failing ground atom short-circuits to the always-empty view.
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
    db.add(Relation::from_pairs("G", vec![(5, 5)])).unwrap();
    let engine = Engine::new(db);
    let rv = engine
        .register_text("e", "Q(x,y) :- R(x,y), G(7,7)", "bf", Policy::default())
        .unwrap();
    assert_eq!(rv.selection.tag, "always-empty");
    assert!(served(&engine, "e", &[1]).unwrap().is_empty());
}

#[test]
fn explain_mentions_selection_and_representation() {
    let db = triangle_db(80, 41);
    let engine = Engine::new(db);
    engine
        .register_text(
            "tri",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "bfb",
            Policy::default(),
        )
        .unwrap();
    let text = engine.explain("tri").unwrap();
    assert!(text.contains("pattern:  bfb"), "{text}");
    assert!(text.contains("strategy:"), "{text}");
    assert!(text.contains("heap bytes"), "{text}");
}

#[test]
fn csv_load_and_textual_requests() {
    let csv = "alice,bob\nbob,carol\ncarol,alice\nalice,carol\n";
    let mut engine = Engine::new(Database::new());
    engine
        .load_csv("R", csv.as_bytes(), Default::default())
        .unwrap();
    engine
        .register_text(
            "reach2",
            "Q(x,y,z) :- R(x,y), R(y,z)",
            "bff",
            Policy::default(),
        )
        .unwrap();
    let alice = engine.resolve_value("alice").unwrap();
    let tuples = served(&engine, "reach2", &[alice]).unwrap();
    // alice → bob → carol and alice → carol → alice.
    let rendered: Vec<String> = tuples
        .iter()
        .map(|t| {
            t.iter()
                .map(|&v| engine.display_value(v))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    assert!(rendered.contains(&"bob,carol".to_string()), "{rendered:?}");
    assert!(
        rendered.contains(&"carol,alice".to_string()),
        "{rendered:?}"
    );
    assert!(engine.resolve_value("mallory").is_err());
    assert_eq!(engine.resolve_value("42").unwrap(), 42);
}
