//! One index store per engine: every `(relation, column order)` sorted
//! index is resident once, shared by all views, merged once per delta, and
//! gone with its last view — and a Theorem 1 view holds its plan's tries
//! only: the `[free | bound]` indexes its cost oracle sorted die when the
//! registration ends. A relation's own column order is the database's
//! stored relation: the store hands it out as a hit and never sorts, files
//! or merges it.
//!
//! The counting allocator is the witness, so the tests in this binary take
//! turns (one mutex): nothing else may allocate while live bytes are being
//! compared.
//!
//! Sabotage: restoring a throwaway `IndexPool::new()` in the build that
//! `Engine::register_selected` runs (`Engine::representation`) turns all
//! three tests red — in
//! `views_share_every_common_index_and_leave_nothing_behind` the τ-twin's
//! registration then grows live bytes by a full set of base indexes and
//! the store never sees them. A Theorem 1 build that leaves a cost oracle
//! alive (a resident field, or one leaked out of `build_pooled`) turns
//! all three red as well: the store then holds the oracle's
//! `[free | bound]` indexes too — five live allocations where the tests
//! count three — and every delta merges them.

use cqc_common::alloc::{live_bytes, CountingAlloc};
use cqc_common::value::Tuple;
use cqc_engine::{BlockService, Engine, Policy};
use cqc_join::naive::evaluate_view;
use cqc_query::parser::parse_adorned;
use cqc_storage::{Database, Delta, Relation, SortedIndex};
use cqc_workload::mixed_delta;
use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TRIANGLE: &str = "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)";
const RELATIONS: [&str; 3] = ["R", "S", "T"];

fn take_turns() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Three different skewed graphs: the `space_accounting.rs` shape, but no
/// two relations alike, so an index of one can never pass for another's.
fn triangle_db(nodes: u64, edges: usize) -> Database {
    let mut db = Database::new();
    for (seed, name) in RELATIONS.iter().enumerate() {
        let graph = cqc_workload::graphs::friendship_graph(
            &mut cqc_workload::rng(7 + seed as u64),
            nodes,
            edges,
            0.8,
        );
        let rows: Vec<Tuple> = graph.iter().map(<[u64]>::to_vec).collect();
        db.add(Relation::new(*name, 2, rows)).unwrap();
    }
    db
}

/// How many of a view's plan tries (in atom order) are the stored
/// relations themselves.
fn stored_relations(tries: &[Arc<SortedIndex>], db: &Database) -> usize {
    tries
        .iter()
        .zip(RELATIONS)
        .filter(|(ix, name)| Arc::ptr_eq(ix, &db.get_arc(name).unwrap()))
        .count()
}

fn allocations<'a>(
    indexes: impl IntoIterator<Item = &'a Arc<SortedIndex>>,
) -> HashSet<*const SortedIndex> {
    indexes.into_iter().map(Arc::as_ptr).collect()
}

fn index_bytes(index: &SortedIndex) -> u64 {
    use cqc_common::heap::HeapSize;
    (index.heap_bytes() + std::mem::size_of::<SortedIndex>()) as u64
}

/// The delta that undoes `forward` on `db` (the pre-delta database):
/// recombined inserts may already be present, and those must stay.
fn inverse_of(forward: &Delta, db: &Database) -> Delta {
    let mut inverse = Delta::new();
    for (name, tuples) in forward.groups() {
        let relation = db.get(name).unwrap();
        inverse.remove_all(
            name,
            tuples.iter().filter(|t| !relation.contains(t)).cloned(),
        );
    }
    for (name, tuples) in forward.remove_groups() {
        let relation = db.get(name).unwrap();
        inverse.insert_all(
            name,
            tuples.iter().filter(|t| relation.contains(t)).cloned(),
        );
    }
    inverse
}

/// Every named view (all of one adornment) answers every bound exactly as
/// the naive join over the published snapshot does.
fn assert_serve_the_naive_join(
    engine: &Engine,
    names: &[&str],
    pattern: &str,
    bounds: &[Vec<u64>],
) {
    let view = parse_adorned(TRIANGLE, pattern).unwrap();
    let db = engine.db();
    let mut served = cqc_common::AnswerBlock::new();
    for bound in bounds {
        let expect = evaluate_view(&view, &db, bound).unwrap();
        for name in names {
            served.clear();
            engine.serve_into(name, bound, &mut served).unwrap();
            assert_eq!(
                served.to_tuples(),
                expect,
                "`{name}` at epoch {} bound {bound:?}",
                db.epoch()
            );
        }
    }
}

#[test]
fn views_share_every_common_index_and_leave_nothing_behind() {
    let _turn = take_turns();
    let engine = Engine::new(triangle_db(600, 6000));
    // The teardown below ages the catalog with a delta and its inverse;
    // apply the pair once up front so the baseline already has whatever
    // capacity a relation keeps from being rewritten.
    let mut forward = Delta::new();
    forward.insert("R", vec![0, 0]);
    let inverse = inverse_of(&forward, &engine.db());
    engine.update(&forward).unwrap();
    engine.update(&inverse).unwrap();
    let before_any = live_bytes();

    // Over three binary relations the plans of `bff` and `bbf` both walk
    // R01 S01 T10: three tries each, the same three, of which R01 and S01
    // are the stored relations and T10 the store's one index. (Their
    // builds also ask for R10 T01 and S10 T01 for the cost oracle: R10 and
    // S10 are sorted and nothing holds them once the registration is over;
    // T01 is the stored T.)
    engine
        .register_text("lo", TRIANGLE, "bff", Policy::parse("tau:8").unwrap())
        .unwrap();
    let lo = engine.base_indexes("lo").unwrap();
    assert_eq!(allocations(&lo).len(), 3);
    assert_eq!(stored_relations(&lo, &engine.db()), 2);
    assert_eq!(engine.catalog_stats().index_store_indexes, 1);

    // The τ-twin: tree + dictionary + ε, and not one base-index byte.
    let before = live_bytes();
    engine
        .register_text("hi", TRIANGLE, "bff", Policy::parse("tau:1024").unwrap())
        .unwrap();
    let grew = live_bytes() - before;
    let hi = engine.base_indexes("hi").unwrap();
    let hi_stats = engine.theorem1_stats("hi").unwrap().unwrap();
    assert_eq!(
        allocations(&hi),
        allocations(&lo),
        "τ-twins share all three"
    );
    // ε is what a twin adds of its own beside the shared tries: its grid
    // and its plan's headers (the base-index term less the store's bytes
    // for those tries), and a fixed allowance for its view definition,
    // cover and catalog entry.
    let shared: u64 = lo.iter().map(|ix| index_bytes(ix)).sum();
    let own = |stats: &cqc_core::theorem1::Theorem1Stats| {
        stats.base_index_distinct_bytes as u64 - shared + 4096
    };
    assert!(
        grew <= (hi_stats.tree_bytes + hi_stats.dict_bytes) as u64 + own(&hi_stats),
        "the τ-twin grew live bytes by {grew}: tree {} + dictionary {} + ε = {} expected, \
         a private copy of the base indexes is {shared} more",
        hi_stats.tree_bytes,
        hi_stats.dict_bytes,
        own(&hi_stats)
    );

    // Another adornment, the same tries: again not one base-index byte.
    let before = live_bytes();
    engine
        .register_text("pt", TRIANGLE, "bbf", Policy::default())
        .unwrap();
    let grew = live_bytes() - before;
    let pt = engine.base_indexes("pt").unwrap();
    let pt_stats = engine
        .theorem1_stats("pt")
        .unwrap()
        .expect("auto resolves `bbf` over this graph to a base-index strategy");
    assert_eq!(
        allocations(&pt),
        allocations(&lo),
        "`pt` walks `lo`'s tries"
    );
    assert!(
        grew <= (pt_stats.tree_bytes + pt_stats.dict_bytes) as u64 + own(&pt_stats),
        "`pt` grew live bytes by {grew}: tree {} + dictionary {} + ε = {}",
        pt_stats.tree_bytes,
        pt_stats.dict_bytes,
        own(&pt_stats)
    );

    let stats = engine.catalog_stats();
    assert_eq!(
        stats.index_store_indexes, 1,
        "one trie per relation, T10 filed"
    );
    assert_eq!(
        stats.index_store_builds, 4,
        "T10 sorted once and one oracle-side index per registration (R10, R10, S10); \
         the five asks in a relation's own order (R01, S01, T01 thrice) are hits: {stats:?}"
    );
    assert_eq!(
        stats.index_store_bytes as u64,
        index_bytes(&lo[2]),
        "each live allocation once, the stored relations not at all"
    );
    assert!(
        stats.resident_bytes > 2 * stats.index_store_bytes,
        "resident_bytes keeps its per-holder definition: {stats:?}"
    );
    let explained = engine.explain("lo").unwrap();
    assert!(
        explained.contains("indexes:  3 base indexes, 3 shared with 2 other views"),
        "{explained}"
    );

    // Unregister all three and evict their entries (two no-op-in-sum
    // deltas age them; nothing registered means nothing is reconciled):
    // the store must be empty and the memory back.
    drop((lo, hi, pt));
    for name in ["lo", "hi", "pt"] {
        assert!(engine.unregister(name));
    }
    engine.update(&forward).unwrap();
    engine.update(&inverse).unwrap();
    assert_eq!(engine.invalidate_stale(), 3);
    let stats = engine.catalog_stats();
    assert_eq!((stats.entries, stats.index_store_indexes), (0, 0));
    assert_eq!(stats.index_store_bytes, 0);
    // What may stay is map capacity the catalog and the store keep (about
    // 2.6 KB here); the smallest index, T10, is over 40 KB.
    let after_all = live_bytes();
    assert!(
        after_all.abs_diff(before_any) <= 4096,
        "live bytes {before_any} before any registration, {after_all} after evicting all"
    );
}

#[test]
fn maintenance_shares_like_a_rebuild_and_pins_no_generation() {
    let _turn = take_turns();
    let engine = Engine::new(triangle_db(40, 250));
    for (name, strategy) in [("lo", "tau:2"), ("hi", "tau:64")] {
        engine
            .register_text(name, TRIANGLE, "bfb", Policy::parse(strategy).unwrap())
            .unwrap();
    }
    let bounds: Vec<Vec<u64>> = (0..40u64).step_by(9).map(|x| vec![x, x / 2]).collect();
    let mut rng = cqc_workload::rng(41);
    let churn = |engine: &Engine, rng: &mut _| {
        let forward = mixed_delta(rng, &engine.db(), &RELATIONS, 2, 2);
        let inverse = inverse_of(&forward, &engine.db());
        for delta in [forward, inverse] {
            let (before, merges) = (engine.db(), engine.catalog_stats().index_store_merges);
            let report = engine.update(&delta).unwrap();
            assert_eq!(report.rebuilt, 0, "domain-safe deltas maintain: {report:?}");
            assert_serve_the_naive_join(engine, &["lo", "hi"], "bfb", &bounds);
            // Maintained views share what rebuilt ones would: the twins
            // hold the same three tries, the store holds no others.
            let (lo, hi) = (
                engine.base_indexes("lo").unwrap(),
                engine.base_indexes("hi").unwrap(),
            );
            assert_eq!(allocations(&lo), allocations(&hi));
            assert_eq!(allocations(&lo).len(), 3);
            let after = engine.db();
            let own = stored_relations(&lo, &after);
            let stats = engine.catalog_stats();
            assert_eq!(stats.index_store_indexes, 3 - own);
            // One live trie per relation, so the store merged exactly as
            // many indexes as the delta changed relations (copy-on-write
            // re-allocates those and no others) less those whose trie is
            // the relation itself, which the database spliced.
            let changed = lo
                .iter()
                .zip(RELATIONS)
                .filter(|(ix, name)| {
                    let now = after.get_arc(name).unwrap();
                    !Arc::ptr_eq(&before.get_arc(name).unwrap(), &now) && !Arc::ptr_eq(ix, &now)
                })
                .count();
            assert_eq!(
                stats.index_store_merges - merges,
                changed as u64,
                "{stats:?}"
            );
        }
    };
    // Warm-up: lazily sized maps and scratch reach their working size.
    for _ in 0..5 {
        churn(&engine, &mut rng);
    }
    let start = live_bytes();
    for _ in 0..200 {
        churn(&engine, &mut rng);
    }
    let end = live_bytes();
    assert!(
        end.abs_diff(start) * 100 <= start,
        "400 deltas moved live bytes {start} → {end}: a generation is pinned"
    );
    let stats = engine.catalog_stats();
    assert_eq!(
        stats.index_store_builds, 4,
        "three tries and two oracle-side indexes for `lo`, the same two again for `hi`, \
         less the three asks in a relation's own order (one trie, one oracle-side index \
         per registration), and nothing re-sorted by a delta: {stats:?}"
    );
}

#[test]
fn racing_registrations_and_updates_keep_one_allocation_per_pair() {
    let _turn = take_turns();
    let bounds: Vec<Vec<u64>> = (0..60u64).step_by(13).map(|x| vec![x]).collect();

    // Two registrations over the same relations start together: both may
    // sort a pair, one allocation survives.
    for round in 0..8u64 {
        let engine = Engine::new(triangle_db(60, 400));
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            for (name, strategy) in [("lo", "tau:2"), ("hi", "tau:64")] {
                let (engine, start) = (&engine, &start);
                scope.spawn(move || {
                    start.wait();
                    engine
                        .register_text(name, TRIANGLE, "bff", Policy::parse(strategy).unwrap())
                        .unwrap();
                });
            }
        });
        let (lo, hi) = (
            engine.base_indexes("lo").unwrap(),
            engine.base_indexes("hi").unwrap(),
        );
        assert_eq!(allocations(&lo), allocations(&hi), "round {round}");
        assert_eq!(
            engine.catalog_stats().index_store_indexes,
            3 - stored_relations(&lo, &engine.db()),
            "round {round}"
        );
    }

    // A registration racing an update may build over the superseded
    // snapshot, but what is served afterwards is the published epoch's
    // join over the published epoch's indexes, held once.
    let mut rng = cqc_workload::rng(5);
    for round in 0..8u64 {
        let engine = Engine::new(triangle_db(60, 400));
        engine
            .register_text("lo", TRIANGLE, "bff", Policy::parse("tau:2").unwrap())
            .unwrap();
        let delta = mixed_delta(&mut rng, &engine.db(), &RELATIONS, 2, 2);
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            let (engine, start, delta) = (&engine, &start, &delta);
            scope.spawn(move || {
                start.wait();
                engine
                    .register_text("hi", TRIANGLE, "bff", Policy::parse("tau:64").unwrap())
                    .unwrap();
            });
            scope.spawn(move || {
                start.wait();
                engine.update(delta).unwrap();
            });
        });
        assert_serve_the_naive_join(&engine, &["lo", "hi"], "bff", &bounds);
        let db = engine.db();
        let (lo, hi) = (
            engine.base_indexes("lo").unwrap(),
            engine.base_indexes("hi").unwrap(),
        );
        assert_eq!(allocations(&lo), allocations(&hi), "round {round}");
        // Plan tries first, in atom order: each is exactly as long as the
        // current relation it indexes.
        for (index, name) in lo.iter().zip(RELATIONS) {
            assert_eq!(index.len(), db.get(name).unwrap().len(), "round {round}");
        }
        assert_eq!(
            engine.catalog_stats().index_store_indexes,
            3 - stored_relations(&lo, &db),
            "round {round}: no index of the superseded snapshot is left"
        );
    }
}
