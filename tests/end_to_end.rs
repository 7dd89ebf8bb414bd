//! Cross-crate equivalence sweep: every strategy × every paper query family
//! × seeded random databases must agree with the naive oracle on every
//! sampled access request (and on full enumeration where applicable).

use cqc_common::value::{Tuple, Value};
use cqc_common::AnswerBlock;
use cqc_core::compressed::{CompressedView, Strategy};
use cqc_engine::policy::{select, Policy};
use cqc_join::naive::evaluate_view;
use cqc_query::AdornedView;
use cqc_storage::Database;
use cqc_workload::{queries, random_requests, witness_requests};

/// The request's answers as `cv` serves them — comparable with the naive
/// oracle as they are, except that Theorem 2 promises pre-order of its
/// bags rather than head order: its stream is sorted first. Nothing is
/// ever deduplicated, so a repeated answer fails the comparison.
///
/// Sabotage check: `let sink = &mut cqc_common::FnSink(|t: &[Value]|
/// sink.push(t) && sink.push(t));` (each answer pushed twice) as the first
/// line of `Theorem2Iter::answer_into` turns every test of this file red
/// but `builds_are_deterministic`, which compares two such streams.
fn served(cv: &CompressedView, req: &[Value]) -> Vec<Tuple> {
    let mut block = AnswerBlock::new();
    cv.answer_into(req, &mut block).unwrap();
    let mut got = block.to_tuples();
    if cv.theorem1().is_none() {
        got.sort();
    }
    got
}

/// One scenario: a view + database + request batch.
struct Scenario {
    name: &'static str,
    view: AdornedView,
    db: Database,
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut r = cqc_workload::rng(99);

    // Triangle over one symmetric relation, three adornments.
    for (name, pattern) in [
        ("triangle-self/bfb", "bfb"),
        ("triangle-self/fff", "fff"),
        ("triangle-self/bff", "bff"),
    ] {
        let mut db = Database::new();
        db.add(cqc_workload::graphs::friendship_graph(&mut r, 40, 220, 0.9))
            .unwrap();
        out.push(Scenario {
            name,
            view: queries::triangle_self(pattern).unwrap(),
            db,
        });
    }

    // Triangle over distinct relations.
    {
        let mut db = Database::new();
        for n in ["R", "S", "T"] {
            db.add(cqc_workload::uniform_relation(&mut r, n, 2, 120, 18))
                .unwrap();
        }
        out.push(Scenario {
            name: "triangle/fbf",
            view: queries::triangle("fbf").unwrap(),
            db,
        });
    }

    // Star joins.
    for (n, pattern) in [(2usize, "bbf"), (3, "bbbf"), (3, "fbfb")] {
        let mut db = Database::new();
        for i in 1..=n {
            db.add(cqc_workload::uniform_relation(
                &mut r,
                &format!("R{i}"),
                2,
                110,
                16,
            ))
            .unwrap();
        }
        out.push(Scenario {
            name: "star",
            view: queries::star(n, pattern).unwrap(),
            db,
        });
    }

    // Paths.
    for (n, pattern) in [(3usize, "bffb"), (4, "bfffb"), (3, "ffff")] {
        let mut db = Database::new();
        for i in 1..=n {
            db.add(cqc_workload::uniform_relation(
                &mut r,
                &format!("R{i}"),
                2,
                90,
                11,
            ))
            .unwrap();
        }
        out.push(Scenario {
            name: "path",
            view: queries::path(n, pattern).unwrap(),
            db,
        });
    }

    // Loomis–Whitney.
    {
        let mut db = Database::new();
        for i in 1..=3 {
            db.add(cqc_workload::uniform_relation(
                &mut r,
                &format!("S{i}"),
                2,
                80,
                10,
            ))
            .unwrap();
        }
        out.push(Scenario {
            name: "lw3/fbf",
            view: queries::loomis_whitney(3, "fbf").unwrap(),
            db,
        });
    }

    // 4-cycle (fhw = 2, non-acyclic, beyond the triangle).
    {
        let mut db = Database::new();
        for i in 1..=4 {
            db.add(cqc_workload::uniform_relation(
                &mut r,
                &format!("R{i}"),
                2,
                90,
                12,
            ))
            .unwrap();
        }
        out.push(Scenario {
            name: "cycle4/bfbf",
            view: queries::cycle(4, "bfbf").unwrap(),
            db,
        });
    }

    // Running example over random ternary relations.
    {
        let mut db = Database::new();
        for i in 1..=3 {
            db.add(cqc_workload::uniform_relation(
                &mut r,
                &format!("R{i}"),
                3,
                100,
                8,
            ))
            .unwrap();
        }
        out.push(Scenario {
            name: "running/fffbbb",
            view: queries::running_example().unwrap(),
            db,
        });
    }

    out
}

/// The recipes swept, as policy tokens: the fixed ones name a recipe, the
/// budget ones reach the planner (`policy::select`), which resolves them
/// per scenario.
const STRATEGIES: [&str; 9] = [
    "direct",
    "materialize",
    "tau:1",
    "tau:4",
    "tau:32",
    "factorized",
    "auto:1.4",
    "budget:1.4",
    "decomposed:2.0",
];

#[test]
fn every_strategy_agrees_with_the_oracle_everywhere() {
    let mut r = cqc_workload::rng(7);
    for sc in scenarios() {
        let mut requests = witness_requests(&mut r, &sc.view, &sc.db, 25);
        requests.extend(random_requests(&mut r, &sc.view, &sc.db, 25));
        // Pre-compute oracle answers once per scenario.
        let expected: Vec<Vec<Tuple>> = requests
            .iter()
            .map(|req| evaluate_view(&sc.view, &sc.db, req).unwrap())
            .collect();
        for sname in STRATEGIES {
            let policy = Policy::parse(sname).unwrap();
            let strat = select(&sc.view, &sc.db, &policy).unwrap().strategy;
            let cv = CompressedView::build(&sc.view, &sc.db, strat)
                .unwrap_or_else(|e| panic!("{} / {sname}: build failed: {e}", sc.name));
            if sname == "factorized" && sc.view.mu() > 0 {
                assert!(
                    cv.theorem1().is_none() && cv.stats().tradeoff_bags == 0,
                    "{}: the factorized recipe is theorem 2 at δ ≡ 0, got {}",
                    sc.name,
                    cv.describe()
                );
            }
            for (req, expect) in requests.iter().zip(&expected) {
                assert_eq!(
                    &served(&cv, req),
                    expect,
                    "{} / {sname} req {req:?}",
                    sc.name
                );
                assert_eq!(
                    cv.exists(req).unwrap(),
                    !expect.is_empty(),
                    "{} / {sname}: exists",
                    sc.name
                );
            }
        }
    }
}

/// Theorem 1's lexicographic-order contract holds across the sweep (the
/// other structures only promise duplicate-freedom).
#[test]
fn theorem1_output_is_lexicographic() {
    let mut r = cqc_workload::rng(8);
    for sc in scenarios() {
        let cv = CompressedView::build(
            &sc.view,
            &sc.db,
            Strategy::Tradeoff {
                tau: 2.0,
                weights: None,
            },
        )
        .unwrap();
        for req in witness_requests(&mut r, &sc.view, &sc.db, 15) {
            let got = served(&cv, &req);
            for w in got.windows(2) {
                assert!(w[0] < w[1], "{}: out of order", sc.name);
            }
        }
    }
}

/// The explicit-decomposition strategy: the paper's Example 10
/// decomposition handed straight to the public API.
#[test]
fn decomposed_explicit_strategy() {
    use cqc_decomp::TreeDecomposition;
    use cqc_query::{Var, VarSet};
    let vs = |vars: &[u32]| -> VarSet { vars.iter().map(|&v| Var(v)).collect() };
    let mut r = cqc_workload::rng(55);
    let mut db = Database::new();
    for i in 1..=4 {
        db.add(cqc_workload::uniform_relation(
            &mut r,
            &format!("R{i}"),
            2,
            80,
            10,
        ))
        .unwrap();
    }
    let view = queries::path(4, "bfffb").unwrap();
    let td = TreeDecomposition::new(
        vec![vs(&[0, 4]), vs(&[0, 1, 3, 4]), vs(&[1, 2, 3])],
        vec![None, Some(0), Some(1)],
    )
    .unwrap();
    let cv = CompressedView::build(
        &view,
        &db,
        Strategy::DecomposedExplicit {
            td,
            delta: vec![0.0, 0.3, 0.2],
        },
    )
    .unwrap();
    assert!(cv.describe().contains("theorem 2"), "{}", cv.describe());
    for req in witness_requests(&mut r, &view, &db, 30) {
        let expect = evaluate_view(&view, &db, &req).unwrap();
        assert_eq!(served(&cv, &req), expect);
    }
}

/// Building twice from the same inputs yields identical structures
/// (determinism matters for reproducible experiments).
#[test]
fn builds_are_deterministic() {
    let sc = &scenarios()[0];
    let a = CompressedView::build(
        &sc.view,
        &sc.db,
        Strategy::Tradeoff {
            tau: 3.0,
            weights: None,
        },
    )
    .unwrap();
    let b = CompressedView::build(
        &sc.view,
        &sc.db,
        Strategy::Tradeoff {
            tau: 3.0,
            weights: None,
        },
    )
    .unwrap();
    let mut r = cqc_workload::rng(4);
    for req in random_requests(&mut r, &sc.view, &sc.db, 20) {
        assert_eq!(served(&a, &req), served(&b, &req));
    }
}
