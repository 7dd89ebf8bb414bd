//! Flat-block enumeration must be tuple-for-tuple identical — same
//! answers, same lexicographic/enumeration order — to the legacy pull
//! iterator, for every strategy, across randomized databases, patterns and
//! requests. The push pipeline and the iterators share their cores, but
//! these tests pin the equivalence from the outside, including the
//! scratch-reuse path (`ViewEnumerator` reset across requests).

use cqc_common::value::{Tuple, Value};
use cqc_common::{AnswerBlock, CountingSink, ExistsSink};
use cqc_core::{CompressedView, Strategy};
use cqc_query::parser::parse_adorned;
use cqc_query::AdornedView;
use cqc_storage::Database;

/// The strategy grid exercised against every random instance.
fn strategies() -> Vec<Strategy> {
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
        Strategy::Decomposed {
            space_budget_exp: 1.5,
        },
        Strategy::Auto {
            space_budget_exp: None,
        },
    ]
}

/// Builds `strat`'s representation of a view with a free variable; both
/// spellings of the factorized recipe must come out as Theorem 2 at δ ≡ 0.
fn build(view: &AdornedView, db: &Database, strat: &Strategy) -> CompressedView {
    let cv = CompressedView::build(view, db, strat.clone()).unwrap();
    if matches!(
        strat,
        Strategy::Factorized
            | Strategy::Auto {
                space_budget_exp: None
            }
    ) {
        assert!(
            matches!(&cv, CompressedView::Decomposed(s) if s.stats().tradeoff_bags == 0),
            "{strat:?}: {}",
            cv.describe()
        );
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

/// Checks one compressed view: for every request, the flat block produced
/// by the push path equals the legacy iterator's output exactly (content
/// *and* order), both through one-shot `answer_into` and through a single
/// reused enumerator; `exists` agrees with non-emptiness.
fn check_equivalence(cv: &CompressedView, reqs: &[Vec<Value>], label: &str) {
    let mut reused = cv.enumerator();
    let mut reused_block = AnswerBlock::new();
    for req in reqs {
        let legacy: Vec<Tuple> = cv.answer(req).unwrap().collect();

        let mut block = AnswerBlock::new();
        cv.answer_into(req, &mut block).unwrap();
        assert_eq!(
            block.to_tuples(),
            legacy,
            "{label}: one-shot flat block diverges for {req:?}"
        );

        reused_block.clear();
        reused.answer_into(req, &mut reused_block).unwrap();
        assert_eq!(
            reused_block.to_tuples(),
            legacy,
            "{label}: reused enumerator diverges for {req:?}"
        );

        let mut count = CountingSink::default();
        cv.answer_into(req, &mut count).unwrap();
        assert_eq!(count.count, legacy.len(), "{label}: count sink {req:?}");

        let mut probe = ExistsSink::default();
        cv.answer_into(req, &mut probe).unwrap();
        assert_eq!(probe.found, !legacy.is_empty(), "{label}: exists {req:?}");
        assert_eq!(cv.exists(req).unwrap(), !legacy.is_empty());
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
fn triangle_views_flat_equals_legacy_across_seeds() {
    for seed in [3u64, 17, 29] {
        let db = random_db(seed, &["R", "S", "T"], 80, 12);
        for pattern in ["bfb", "bbf", "fff", "fbf"] {
            let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
            let nb = pattern.matches('b').count();
            let reqs = requests(nb, 6);
            for strat in strategies() {
                let cv = build(&view, &db, &strat);
                check_equivalence(
                    &cv,
                    &reqs,
                    &format!("triangle seed={seed} {pattern} {strat:?}"),
                );
            }
        }
    }
}

#[test]
fn path_views_flat_equals_legacy() {
    for seed in [5u64, 23] {
        let db = random_db(seed, &["R1", "R2", "R3"], 60, 8);
        for pattern in ["bffb", "bfff", "ffff"] {
            let view = parse_adorned("P(x1,x2,x3,x4) :- R1(x1,x2), R2(x2,x3), R3(x3,x4)", pattern)
                .unwrap();
            let nb = pattern.matches('b').count();
            let reqs = requests(nb, 5);
            for strat in strategies() {
                let cv = build(&view, &db, &strat);
                check_equivalence(&cv, &reqs, &format!("path seed={seed} {pattern} {strat:?}"));
            }
        }
    }
}

#[test]
fn star_views_flat_equals_legacy() {
    let db = random_db(11, &["R1", "R2"], 70, 10);
    for pattern in ["bbf", "fbf", "bff"] {
        let view = parse_adorned("S(x1,x2,z) :- R1(x1,z), R2(x2,z)", pattern).unwrap();
        let nb = pattern.matches('b').count();
        let reqs = requests(nb, 6);
        for strat in strategies() {
            let cv = build(&view, &db, &strat);
            check_equivalence(&cv, &reqs, &format!("star {pattern} {strat:?}"));
        }
    }
}

#[test]
fn bound_only_and_always_empty_flat_paths() {
    let db = random_db(41, &["R", "S"], 40, 6);
    // All-bound: answers are the empty tuple (arity 0) when present.
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bbb").unwrap();
    let cv = CompressedView::build(
        &view,
        &db,
        Strategy::Auto {
            space_budget_exp: None,
        },
    )
    .unwrap();
    check_equivalence(&cv, &requests(3, 5), "bound-only");

    // Always-empty via a failing ground atom.
    let mut db2 = Database::new();
    db2.add(cqc_storage::Relation::from_pairs("R", vec![(1, 2)]))
        .unwrap();
    db2.add(cqc_storage::Relation::from_pairs("G", vec![(5, 5)]))
        .unwrap();
    let view = parse_adorned("Q(x, y) :- R(x, y), G(7, 7)", "bf").unwrap();
    let cv = CompressedView::build(&view, &db2, Strategy::Direct).unwrap();
    assert_eq!(cv.strategy_name(), "always-empty");
    check_equivalence(&cv, &requests(1, 4), "always-empty");
}

#[test]
fn theorem1_iter_reset_matches_fresh_iterators() {
    // The reset path must behave exactly like a fresh `answer` call — the
    // enumerator-reuse contract the serve loop depends on.
    let db = random_db(59, &["R", "S", "T"], 90, 10);
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
    let s = match CompressedView::build(
        &view,
        &db,
        Strategy::Tradeoff {
            tau: 3.0,
            weights: None,
        },
    )
    .unwrap()
    {
        CompressedView::Tradeoff(s) => s,
        other => panic!("expected theorem-1, got {}", other.strategy_name()),
    };
    let mut it = s.answer(&[0]).unwrap();
    for x in 0..8u64 {
        it.reset(&[x]).unwrap();
        let mut got: Vec<Tuple> = Vec::new();
        while it.advance() {
            got.push(it.current().to_vec());
        }
        let fresh: Vec<Tuple> = s.answer(&[x]).unwrap().collect();
        assert_eq!(got, fresh, "reset diverges from fresh at x={x}");
    }
    // Interleave partially drained requests: reset mid-enumeration.
    it.reset(&[1]).unwrap();
    it.advance();
    it.reset(&[2]).unwrap();
    let drained: Vec<Tuple> = (&mut it).collect();
    let fresh: Vec<Tuple> = s.answer(&[2]).unwrap().collect();
    assert_eq!(drained, fresh, "reset after partial drain");
}
