//! The paper's §1 application scenarios, end to end.

use cqc_common::heap::HeapSize;
use cqc_common::value::{Tuple, Value};
use cqc_common::AnswerBlock;
use cqc_core::compressed::{CompressedView, Strategy};
use cqc_engine::policy::{select, Policy};
use cqc_join::naive::evaluate_view;
use cqc_query::parser::parse_adorned;
use cqc_storage::{Database, Interner, Relation};
use cqc_workload::queries;

/// The request's answers as `cv` serves them. Every structure but
/// Theorem 2 promises the oracle's head order; Theorem 2 promises pre-order
/// of its bags, so its stream is sorted — never deduplicated — first.
fn served(cv: &CompressedView, req: &[Value]) -> Vec<Tuple> {
    let mut block = AnswerBlock::new();
    cv.answer_into(req, &mut block).unwrap();
    let mut got = block.to_tuples();
    if matches!(cv, CompressedView::Decomposed(_)) {
        got.sort();
    }
    got
}

/// Example 1: mutual friends of pairs of friends in a social network,
/// served from a compressed triangle view at several τ points.
#[test]
fn social_network_mutual_friends() {
    let mut r = cqc_workload::rng(50);
    let graph = cqc_workload::graphs::friendship_graph(&mut r, 80, 600, 1.0);
    let mut db = Database::new();
    db.add(graph).unwrap();
    let view = queries::triangle_self("bfb").unwrap();

    let mut spaces = Vec::new();
    for tau in [1.0, 8.0, 64.0] {
        let cv = CompressedView::build(
            &view,
            &db,
            Strategy::Tradeoff {
                tau,
                weights: Some(vec![0.5, 0.5, 0.5]),
            },
        )
        .unwrap();
        spaces.push(cv.heap_bytes());
        // Friend pairs from actual edges: the intended access pattern.
        let rel = db.get("R").unwrap();
        for i in (0..rel.len()).step_by(7) {
            let req = [rel.value(0, i), rel.value(1, i)];
            let expect = evaluate_view(&view, &db, &req).unwrap();
            assert_eq!(served(&cv, &req), expect, "τ={tau} pair {req:?}");
        }
    }
    assert!(
        spaces.windows(2).all(|w| w[0] >= w[1]),
        "space must not grow with τ: {spaces:?}"
    );
}

/// §1 graph analytics: the co-author relationship over an author–paper
/// table. The paper's V^bf(x,y) projects the paper away; projections are
/// future work in the paper (§8) and rejected here, so the example serves
/// the full witness variant V^bff(x, y, p) — "co-authors of x, with the
/// shared paper" — which answers the same neighborhood requests.
#[test]
fn coauthor_graph_neighborhoods() {
    let mut r = cqc_workload::rng(51);
    let ap = cqc_workload::graphs::author_paper(&mut r, 60, 150, 700, 1.05);
    let mut db = Database::new();
    db.add(ap).unwrap();

    // Full (projection-free) co-author view.
    let view = parse_adorned("V(x, y, p) :- R(x, p), R(y, p)", "bff").unwrap();

    // The projection variant is rejected, as documented.
    let proj = queries::coauthor().unwrap();
    assert!(CompressedView::build(&proj, &db, Strategy::Direct).is_err());

    let cv = CompressedView::build(
        &view,
        &db,
        Strategy::Tradeoff {
            tau: 4.0,
            weights: None,
        },
    )
    .unwrap();
    let baseline = CompressedView::build(&view, &db, Strategy::Materialize).unwrap();
    for author in 0..60u64 {
        let expect = evaluate_view(&view, &db, &[author]).unwrap();
        let got = served(&cv, &[author]);
        assert_eq!(got, expect, "author {author}");
        assert_eq!(served(&baseline, &[author]), expect);
        // Distinct co-authors derived client-side (the projection).
        let mut coauthors: Vec<u64> = got.iter().map(|t| t[0]).collect();
        coauthors.sort_unstable();
        coauthors.dedup();
        let mut expect_co: Vec<u64> = expect.iter().map(|t| t[0]).collect();
        expect_co.sort_unstable();
        expect_co.dedup();
        assert_eq!(coauthors, expect_co);
    }
    // Space accounting is available on both representations (absolute
    // constants at this toy scale are not meaningful; EXP-1/EXP-5 measure
    // the scaling shapes at size).
    assert!(cv.heap_bytes() > 0 && baseline.heap_bytes() > 0);
}

/// §1 statistical inference (Felix): an adorned rule view materialized at
/// several points of the continuum instead of the all-or-nothing choice.
#[test]
fn felix_style_materialization_continuum() {
    // Rule body: Mention(doc, person), Friend(person, other),
    // Works(other, org) — accessed as: given doc and org, enumerate the
    // (person, other) chains.
    let mut r = cqc_workload::rng(52);
    let mut db = Database::new();
    db.add(cqc_workload::uniform_relation(
        &mut r, "Mention", 2, 220, 25,
    ))
    .unwrap();
    db.add(cqc_workload::uniform_relation(&mut r, "Friend", 2, 220, 25))
        .unwrap();
    db.add(cqc_workload::uniform_relation(&mut r, "Works", 2, 220, 25))
        .unwrap();
    let view = parse_adorned(
        "Rule(doc, org, person, other) :- Mention(doc, person), Friend(person, other), Works(other, org)",
        "bbff",
    )
    .unwrap();

    let lazy = CompressedView::build(&view, &db, Strategy::Direct).unwrap();
    let eager = CompressedView::build(&view, &db, Strategy::Materialize).unwrap();
    // The middle ground is the planner's choice under a space budget.
    let partial = |budget: f64| {
        let policy = Policy::Auto {
            space_budget_exp: Some(budget),
        };
        let strategy = select(&view, &db, &policy).unwrap().strategy;
        CompressedView::build(&view, &db, strategy).unwrap()
    };
    let (partial_small, partial_large) = (partial(1.1), partial(2.0));

    let reqs = cqc_workload::witness_requests(&mut r, &view, &db, 60);
    for req in &reqs {
        let expect = evaluate_view(&view, &db, req).unwrap();
        for (name, cv) in [
            ("lazy", &lazy),
            ("eager", &eager),
            ("partial-small", &partial_small),
            ("partial-large", &partial_large),
        ] {
            assert_eq!(served(cv, req), expect, "{name} req {req:?}");
        }
    }
}

/// The interner round-trips real string identities into the engine and
/// back — the loading path every example binary uses.
#[test]
fn interned_string_pipeline() {
    let mut interner = Interner::new();
    let edges = [
        ("alice", "bob"),
        ("bob", "carol"),
        ("carol", "alice"),
        ("alice", "dave"),
        ("dave", "bob"),
    ];
    let mut pairs = Vec::new();
    for (a, b) in edges {
        let (a, b) = (interner.intern(a), interner.intern(b));
        pairs.push((a, b));
        pairs.push((b, a));
    }
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", pairs)).unwrap();
    let view = queries::triangle_self("bfb").unwrap();
    let cv = CompressedView::build(
        &view,
        &db,
        Strategy::Tradeoff {
            tau: 1.0,
            weights: None,
        },
    )
    .unwrap();
    let alice = interner.get("alice").unwrap();
    let bob = interner.get("bob").unwrap();
    let mutuals: Vec<String> = served(&cv, &[alice, bob])
        .iter()
        .map(|t| interner.resolve(t[0]).unwrap().to_string())
        .collect();
    // alice–bob triangle closers: carol (a–b–c–a) and dave (a–d–b… needs
    // R(alice,y), R(y,bob), R(bob,alice): y ∈ {carol? R(alice,carol)? no —
    // carol→alice exists so alice→carol exists (symmetric) and
    // carol→bob(bob→carol) exists} and dave (alice→dave, dave→bob).
    assert_eq!(mutuals, vec!["carol".to_string(), "dave".to_string()]);
}
