//! Every way of driving a representation's sink — one-shot `answer_into`,
//! a reused `enumerator()`, counting and first-answer probes — serves the
//! naive join's answers (`cqc_join::naive::evaluate_view`, an independent
//! nested-loop oracle): the same tuples, each once, and in its
//! lexicographic order wherever the recipe promises head order (every
//! recipe but a searched Theorem 2 decomposition, which promises pre-order
//! of its bags — `materialize`'s one bag under the bound root is head
//! order). For every strategy, across randomized databases, patterns and
//! requests.
//!
//! Served streams are never deduplicated before the comparison. Sabotage
//! check: `let sink = &mut cqc_common::FnSink(|t: &[Value]| sink.push(t) &&
//! sink.push(t));` (each answer pushed twice) as the first line of
//! `Theorem2Iter::answer_into` turns every test of this file red but
//! `theorem1_cursor_reuse_matches_fresh_cursors`, which drives Theorem 1's
//! own cursor.

use cqc_common::value::{Tuple, Value};
use cqc_common::{AnswerBlock, CountingSink, ExistsSink, FnSink};
use cqc_core::{CompressedView, Strategy};
use cqc_decomp::{search_connex, Objective};
use cqc_join::naive::{evaluate_full, evaluate_view};
use cqc_query::parser::parse_adorned;
use cqc_query::AdornedView;
use cqc_storage::Database;

/// The strategy grid exercised against every random instance of `view`.
fn strategies(view: &AdornedView) -> Vec<Strategy> {
    vec![
        Strategy::Materialize,
        Strategy::Direct,
        Strategy::Factorized,
        Strategy::Tradeoff {
            tau: 1.0,
            weights: None,
        },
        Strategy::Tradeoff {
            tau: 4.0,
            weights: None,
        },
        Strategy::Tradeoff {
            tau: 1e6,
            weights: None,
        },
        decomposed(view, 1.5),
    ]
}

/// What the planner resolves `decomposed:<budget_exp>` to: Theorem 2 over
/// the decomposition minimizing δ-height under `|D|^budget_exp` (§6).
fn decomposed(view: &AdornedView, budget_exp: f64) -> Strategy {
    let objective = Objective::MinimizeHeightUnderBudget { budget_exp };
    let found = search_connex(&view.query().hypergraph(), view.bound_vars(), objective).unwrap();
    Strategy::DecomposedExplicit {
        td: found.td,
        delta: found.delta,
    }
}

/// Builds `strat`'s representation of a view with a free variable. The
/// factorized recipe must come out as Theorem 2 at δ ≡ 0;
/// `materialize` as Theorem 2 at δ ≡ 0 with one bag holding exactly the
/// |Q(D)| rows of the full join; `direct` as Theorem 1 at τ = ∞ with one
/// leaf and an empty dictionary.
fn build(view: &AdornedView, db: &Database, strat: &Strategy) -> CompressedView {
    let cv = CompressedView::build(view, db, strat.clone()).unwrap();
    match strat {
        Strategy::Factorized => assert!(
            cv.theorem1().is_none() && cv.stats().tradeoff_bags == 0,
            "{strat:?}: {}",
            cv.describe()
        ),
        Strategy::Materialize => {
            let rows = evaluate_full(view.query(), db).unwrap().len();
            let s = cv.stats();
            assert!(
                cv.theorem1().is_none()
                    && s.bags == 1
                    && s.tradeoff_bags == 0
                    && s.materialized_tuples == rows,
                "{strat:?} ({rows} rows): {}",
                cv.describe()
            );
        }
        Strategy::Direct => assert!(
            cv.theorem1().is_some_and(|s| s.tau() == f64::INFINITY
                && s.stats().tree_nodes == 1
                && s.stats().dict_entries == 0
                && s.stats().dict_candidates == 0),
            "{strat:?}: {}",
            cv.describe()
        ),
        _ => {}
    }
    cv
}

/// All bound assignments over a small grid (cross product of `0..grid`).
fn requests(nb: usize, grid: u64) -> Vec<Vec<Value>> {
    let mut reqs: Vec<Vec<Value>> = vec![vec![]];
    for _ in 0..nb {
        reqs = reqs
            .iter()
            .flat_map(|r| {
                (0..grid).map(move |v| {
                    let mut r2 = r.clone();
                    r2.push(v);
                    r2
                })
            })
            .collect();
    }
    reqs
}

/// A served stream in the form the oracle is compared with: as served
/// when the recipe promises head order, sorted — never deduplicated — for
/// the recipes over a searched decomposition (`factorized`, and
/// `decomposed` as the planner resolves it). Keyed by the recipe, not the
/// structure: `materialize` builds a Theorem 2 structure and is still
/// compared unsorted.
fn comparable(strat: &Strategy, block: &AnswerBlock) -> Vec<Tuple> {
    let mut got = block.to_tuples();
    if matches!(
        strat,
        Strategy::Factorized | Strategy::DecomposedExplicit { .. }
    ) {
        got.sort();
    }
    got
}

/// Checks one compressed view against the naive join: for every request,
/// one-shot `answer_into` and a single reused enumerator serve the oracle's
/// answers (and the same stream as each other), a counting sink sees as
/// many, and both first-answer probes agree with non-emptiness.
fn check_against_naive(
    cv: &CompressedView,
    strat: &Strategy,
    view: &AdornedView,
    db: &Database,
    reqs: &[Vec<Value>],
    label: &str,
) {
    let mut reused = cv.enumerator();
    let mut reused_block = AnswerBlock::new();
    for req in reqs {
        let expect = evaluate_view(view, db, req).unwrap();

        let mut block = AnswerBlock::new();
        cv.answer_into(req, &mut block).unwrap();
        assert_eq!(
            comparable(strat, &block),
            expect,
            "{label}: one-shot answer_into diverges for {req:?}"
        );

        reused_block.clear();
        reused.answer_into(req, &mut reused_block).unwrap();
        assert_eq!(
            reused_block.values(),
            block.values(),
            "{label}: reused enumerator diverges for {req:?}"
        );
        assert_eq!(reused_block.len(), expect.len());

        let mut count = CountingSink::default();
        cv.answer_into(req, &mut count).unwrap();
        assert_eq!(count.count, expect.len(), "{label}: count sink {req:?}");

        let mut probe = ExistsSink::default();
        cv.answer_into(req, &mut probe).unwrap();
        assert_eq!(probe.found, !expect.is_empty(), "{label}: exists {req:?}");
        assert_eq!(cv.exists(req).unwrap(), !expect.is_empty());
    }
}

fn random_db(seed: u64, names: &[&str], rows: usize, domain: u64) -> Database {
    let mut rng = cqc_workload::rng(seed);
    let mut db = Database::new();
    for name in names {
        db.add(cqc_workload::uniform_relation(
            &mut rng, name, 2, rows, domain,
        ))
        .unwrap();
    }
    db
}

#[test]
fn triangle_views_match_naive_across_seeds() {
    for seed in [3u64, 17, 29] {
        let db = random_db(seed, &["R", "S", "T"], 80, 12);
        for pattern in ["bfb", "bbf", "fff", "fbf"] {
            let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
            let nb = pattern.matches('b').count();
            let reqs = requests(nb, 6);
            for strat in strategies(&view) {
                let cv = build(&view, &db, &strat);
                let label = format!("triangle seed={seed} {pattern} {strat:?}");
                check_against_naive(&cv, &strat, &view, &db, &reqs, &label);
            }
        }
    }
}

#[test]
fn path_views_match_naive() {
    for seed in [5u64, 23] {
        let db = random_db(seed, &["R1", "R2", "R3"], 60, 8);
        for pattern in ["bffb", "bfff", "ffff"] {
            let view = parse_adorned("P(x1,x2,x3,x4) :- R1(x1,x2), R2(x2,x3), R3(x3,x4)", pattern)
                .unwrap();
            let nb = pattern.matches('b').count();
            let reqs = requests(nb, 5);
            for strat in strategies(&view) {
                let cv = build(&view, &db, &strat);
                let label = format!("path seed={seed} {pattern} {strat:?}");
                check_against_naive(&cv, &strat, &view, &db, &reqs, &label);
            }
        }
    }
}

#[test]
fn star_views_match_naive() {
    let db = random_db(11, &["R1", "R2"], 70, 10);
    for pattern in ["bbf", "fbf", "bff"] {
        let view = parse_adorned("S(x1,x2,z) :- R1(x1,z), R2(x2,z)", pattern).unwrap();
        let nb = pattern.matches('b').count();
        let reqs = requests(nb, 6);
        for strat in strategies(&view) {
            let cv = build(&view, &db, &strat);
            let label = format!("star {pattern} {strat:?}");
            check_against_naive(&cv, &strat, &view, &db, &reqs, &label);
        }
    }
}

/// One row of a table of built representations: the recipe, what it
/// built, and the view and database it was built from.
type Row = (Strategy, CompressedView, AdornedView, Database);

/// An all-bound view (answers are the empty tuple, arity 0, when present)
/// and a view proven empty by a failing ground atom.
fn bound_only_and_always_empty() -> [Row; 2] {
    let db = random_db(41, &["R", "S"], 40, 6);
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bbb").unwrap();
    // What the planner stores for an all-bound view.
    let bound_only = CompressedView::build(&view, &db, Strategy::Factorized).unwrap();
    // Every recipe resolves an all-bound view to Prop. 1: Theorem 2 over
    // the root bag alone, every relation a root check.
    for strat in strategies(&view) {
        let cv = CompressedView::build(&view, &db, strat.clone()).unwrap();
        assert_eq!(cv.stats().bags, 0, "{strat:?}: {}", cv.describe());
    }

    let mut db2 = Database::new();
    db2.add(cqc_storage::Relation::from_pairs("R", vec![(1, 2)]))
        .unwrap();
    db2.add(cqc_storage::Relation::from_pairs("G", vec![(5, 5)]))
        .unwrap();
    let view2 = parse_adorned("Q(x, y) :- R(x, y), G(7, 7)", "bf").unwrap();
    let always_empty = CompressedView::build(&view2, &db2, Strategy::Direct).unwrap();
    assert!(always_empty.describe().starts_with("theorem 2: 0 bags"));
    [
        (Strategy::Factorized, bound_only, view, db),
        (Strategy::Direct, always_empty, view2, db2),
    ]
}

#[test]
fn bound_only_and_always_empty_flat_paths() {
    for (strat, cv, view, db) in bound_only_and_always_empty() {
        let reqs = requests(view.bound_head().len(), 5);
        check_against_naive(&cv, &strat, &view, &db, &reqs, cv.strategy_name());
    }
}

/// An enumerator whose last request was stopped by its sink — at the first
/// answer, or one answer into the stream — owes the next request that
/// request's full answer: nothing of the abandoned stream may leak into
/// it, for every recipe: the one cursor, Theorem 2's odometer, drives a
/// Theorem 1 view's one bag (`direct`, `tau:3`), materialized bags
/// (`materialize`, `factorized`), root checks alone (an all-bound view) and
/// a check no request passes (an always-empty view).
///
/// Sabotage check: deleting `self.join_active = false;` from
/// `Theorem1Iter::start` (the abandoned request's join keeps draining
/// into the next one) turns this test red on the `tau:3` row.
#[test]
fn enumerator_stopped_early_serves_the_next_request_in_full() {
    let db = random_db(59, &["R", "S", "T"], 90, 10);
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
    let tradeoff = Strategy::Tradeoff {
        tau: 3.0,
        weights: None,
    };
    let mut rows: Vec<Row> = Vec::new();
    for strat in [
        Strategy::Materialize,
        Strategy::Direct,
        tradeoff,
        Strategy::Factorized,
        decomposed(&view, 1.05),
    ] {
        rows.push((
            strat.clone(),
            build(&view, &db, &strat),
            view.clone(),
            db.clone(),
        ));
    }
    rows.extend(bound_only_and_always_empty());
    let mut covered: Vec<&str> = Vec::new();
    for (strat, cv, view, db) in &rows {
        let mut enumerator = cv.enumerator();
        let name = cv.strategy_name();
        covered.push(name);
        let reqs = requests(view.bound_head().len(), 6);
        let mut block = AnswerBlock::new();
        for (i, stopped) in reqs.iter().enumerate() {
            // Stop at the first answer, then one answer in (a live join or
            // odometer is abandoned mid-stream), each followed by a fresh
            // request served in full.
            for keep in [0usize, 1] {
                let mut seen = 0usize;
                let mut stop = FnSink(|_: &[Value]| {
                    seen += 1;
                    seen <= keep
                });
                enumerator.answer_into(stopped, &mut stop).unwrap();
                let next = &reqs[(i + 1 + keep) % reqs.len()];
                block.clear();
                enumerator.answer_into(next, &mut block).unwrap();
                assert_eq!(
                    comparable(strat, &block),
                    evaluate_view(view, db, next).unwrap(),
                    "{name} ({strat:?}): {next:?} after stopping {stopped:?} at answer {}",
                    keep + 1
                );
            }
        }
    }
    covered.sort_unstable();
    covered.dedup();
    assert_eq!(covered, ["theorem-1", "theorem-2"]);
}

#[test]
fn theorem1_cursor_reuse_matches_fresh_cursors() {
    // One cursor reused across requests must behave exactly like a fresh
    // one per request — the reuse contract Theorem 2's bags and the serve
    // loop depend on — and both serve the naive join, in its order.
    let db = random_db(59, &["R", "S", "T"], 90, 10);
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
    let tradeoff = Strategy::Tradeoff {
        tau: 3.0,
        weights: None,
    };
    let cv = CompressedView::build(&view, &db, tradeoff).unwrap();
    let s = cv.theorem1().expect("a Theorem 1 view");
    let mut cursor = s.enumerator();
    let (mut reused, mut fresh) = (AnswerBlock::new(), AnswerBlock::new());
    for x in 0..8u64 {
        reused.clear();
        cursor.answer_into(&[x], &mut reused).unwrap();
        fresh.clear();
        s.enumerator().answer_into(&[x], &mut fresh).unwrap();
        assert_eq!(reused.values(), fresh.values(), "reuse diverges at x={x}");
        let expect = evaluate_view(&view, &db, &[x]).unwrap();
        assert_eq!(reused.to_tuples(), expect, "x={x}");
        // A clipped request leaves no clip behind either.
        if let (Some(lo), Some(hi)) = (expect.first(), expect.last()) {
            reused.clear();
            cursor.answer_range_into(&[x], lo, lo, &mut reused).unwrap();
            assert_eq!(
                reused.to_tuples(),
                std::slice::from_ref(lo),
                "x={x} clipped"
            );
            reused.clear();
            cursor.answer_range_into(&[x], lo, hi, &mut reused).unwrap();
            assert_eq!(reused.to_tuples(), expect, "x={x} clipped to everything");
        }
    }
}
