//! Golden tests: every worked example and figure of the paper, end to end
//! through the public API.
//!
//! Module-level unit tests already pin the internals (box decompositions,
//! split points, tree shapes, dictionary entries, LP values); these tests
//! re-derive the same facts through the crate boundaries a user would cross.

use cqc_common::heap::HeapSize;
use cqc_common::value::{Tuple, Value};
use cqc_common::AnswerBlock;
use cqc_core::compressed::{CompressedView, Strategy};
use cqc_core::theorem1::Theorem1Structure;
use cqc_core::theorem2::Theorem2Structure;
use cqc_decomp::{connex_fhw, decomposition_widths, search_connex, Objective, TreeDecomposition};
use cqc_engine::policy::{select, Policy};
use cqc_join::naive::evaluate_view;
use cqc_lp::covers::{rho_star, slack};
use cqc_lp::fractional::{min_delay_cover, min_space_cover};
use cqc_query::{Var, VarSet};
use cqc_storage::{Database, Relation};
use cqc_workload::queries;

fn vs(vars: &[u32]) -> VarSet {
    vars.iter().map(|&v| Var(v)).collect()
}

/// The answers one `answer_into` call pushes, in the order pushed.
fn pushed(answer_into: impl FnOnce(&mut AnswerBlock) -> cqc_common::Result<()>) -> Vec<Tuple> {
    let mut block = AnswerBlock::new();
    answer_into(&mut block).unwrap();
    block.to_tuples()
}

/// Theorem 2 promises pre-order of its bags, not head order: sort — and
/// only sort, so a repeated answer survives — before comparing its stream
/// with the naive join.
fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

/// The Example 13 database.
fn running_db() -> Database {
    let mut db = Database::new();
    db.add(Relation::new(
        "R1",
        3,
        vec![
            vec![1, 1, 1],
            vec![1, 1, 2],
            vec![1, 2, 1],
            vec![2, 1, 1],
            vec![3, 1, 1],
        ],
    ))
    .unwrap();
    db.add(Relation::new(
        "R2",
        3,
        vec![
            vec![1, 1, 2],
            vec![1, 2, 1],
            vec![1, 2, 2],
            vec![2, 1, 1],
            vec![2, 1, 2],
        ],
    ))
    .unwrap();
    db.add(Relation::new(
        "R3",
        3,
        vec![
            vec![1, 1, 1],
            vec![1, 1, 2],
            vec![1, 2, 1],
            vec![2, 1, 1],
            vec![2, 1, 2],
        ],
    ))
    .unwrap();
    db
}

/// Examples 4, 13, 14, 15 and Figure 3, through the public builder: the
/// running example at u = (1,1,1), τ = 4 has slack 2 and the five-node tree
/// of Figure 3 as its built tree, in which `(1,1,1)` is heavy (Def. 3) at
/// the two nodes of Example 15; and it answers every access request
/// correctly. The structure stores neither pair: each one's `⊥` run finds
/// its answers within 16 · τ counted units, so the stored tree is a root
/// leaf and the dictionary empty.
#[test]
fn running_example_end_to_end() {
    use cqc_core::cost::CostEstimator;
    use cqc_core::dbtree::DelayBalancedTree;
    let view = queries::running_example().unwrap();
    let db = running_db();
    let s = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], 4.0).unwrap();

    assert!(
        (s.alpha() - 2.0).abs() < 1e-9,
        "Example 4: slack α(V_f) = 2"
    );
    let est = CostEstimator::build(&view, &db, s.weights(), s.alpha()).unwrap();
    let tree = DelayBalancedTree::build(&est, s.tau()).unwrap();
    assert_eq!(tree.len(), 5, "Figure 3: five nodes");
    assert_eq!(tree.depth(), 2);

    // Example 15: (1,1,1) is heavy at r and r_r. r_r is the root's right
    // child: I(r_r) = [⟨1,2,1⟩, ⟨2,2,2⟩], carried down by the walk as
    // [succ(β(r)), grid maximum].
    let root = tree.root_interval();
    let mut beta = vec![0; 3];
    let rr = tree
        .node(tree.root(), &root.lo, &root.hi, &mut beta)
        .right
        .unwrap();
    assert_eq!((rr.node, rr.level), (2, 1), "Figure 3: r_l is node 1");
    let mut bounds = Vec::new();
    tree.child_interval_into(true, &root.lo, &root.hi, &beta, &mut bounds);
    let (lo, hi) = bounds.split_at(3);
    let values = |ranks: &[usize]| -> Vec<u64> {
        let grid = ranks.iter().zip(s.domains());
        grid.map(|(&r, d)| d.value(r)).collect()
    };
    assert_eq!(values(lo), vec![1, 2, 1]);
    assert_eq!(values(hi), vec![2, 2, 2]);
    let sizes = est.sizes();
    let rr_interval = tree.interval(rr);
    assert!(est.t_interval_bound(&[1, 1, 1], &root, &sizes) > tree.threshold_of(0));
    assert!(est.t_interval_bound(&[1, 1, 1], &rr_interval, &sizes) > tree.threshold_of(1));
    // Both are light by work: nothing is stored.
    let stats = s.stats();
    assert_eq!((stats.tree_nodes, stats.dict_entries), (1, 0));
    assert_eq!(s.dictionary().candidate(&[1, 1, 1]), None);
    assert!(stats.dict_light_by_work > 0, "{stats:?}");

    // Query answering: lexicographic output, matching the oracle.
    let got = pushed(|sink| s.enumerator().answer_into(&[1, 1, 1], sink));
    assert_eq!(got, vec![vec![1, 1, 2], vec![1, 2, 1], vec![1, 2, 2]]);
    for w1 in 1..=3u64 {
        for w2 in 1..=2u64 {
            for w3 in 1..=2u64 {
                let vb = [w1, w2, w3];
                let expect = evaluate_view(&view, &db, &vb).unwrap();
                let got = pushed(|sink| s.enumerator().answer_into(&vb, sink));
                assert_eq!(got, expect, "v_b = {vb:?}");
            }
        }
    }
}

/// Example 1 / Proposition 3 on the triangle view `V^bfb`: the structure
/// interpolates between the two extremes, space shrinking monotonically
/// with τ while answers stay exact.
#[test]
fn example_1_triangle_tradeoff() {
    let view = queries::triangle_self("bfb").unwrap();
    let mut r = cqc_workload::rng(20);
    let graph = cqc_workload::graphs::friendship_graph(&mut r, 60, 400, 0.8);
    let mut db = Database::new();
    db.add(graph).unwrap();

    let mat = CompressedView::build(&view, &db, Strategy::Materialize).unwrap();
    let direct = CompressedView::build(&view, &db, Strategy::Direct).unwrap();

    let mut last_space = usize::MAX;
    for tau in [1.0, 4.0, 16.0, 64.0] {
        let s = Theorem1Structure::build(&view, &db, &[0.5, 0.5, 0.5], tau).unwrap();
        let nonlinear = s.stats().tree_nodes + s.stats().dict_entries;
        assert!(nonlinear <= last_space, "space must shrink as τ grows");
        last_space = nonlinear;
        // Correctness on a witness sample.
        let reqs = cqc_workload::witness_requests(&mut r, &view, &db, 40);
        for req in reqs {
            let expect = evaluate_view(&view, &db, &req).unwrap();
            let got = pushed(|sink| s.enumerator().answer_into(&req, sink));
            assert_eq!(got, expect, "τ={tau} req={req:?}");
        }
    }
    // The §2.3 extremes bracket the structure: materialization (Theorem 2
    // at δ ≡ 0) stores the whole result, direct evaluation (Theorem 1 at
    // τ = ∞) only base indexes and the grid.
    assert!(mat.heap_bytes() > 0 && direct.heap_bytes() > 0);
}

/// Example 6: the Loomis–Whitney join LW_3 has ρ* = 3/2; with linear space
/// the optimizer picks delay exponent 1/(n−1) = 1/2, and the structure at
/// the uniform cover answers correctly.
#[test]
fn example_6_loomis_whitney() {
    let view = queries::loomis_whitney(3, "bff").unwrap();
    let h = view.query().hypergraph();
    assert!((rho_star(&h, h.all_vars()).unwrap() - 1.5).abs() < 1e-6);
    let c = min_delay_cover(&h, view.free_vars(), &[1.0, 1.0, 1.0], 1.0).unwrap();
    assert!((c.log_tau - 0.5).abs() < 1e-5, "τ = |D|^{{1/(n-1)}}");

    let mut r = cqc_workload::rng(21);
    let mut db = Database::new();
    for i in 1..=3 {
        db.add(cqc_workload::uniform_relation(
            &mut r,
            &format!("S{i}"),
            2,
            80,
            12,
        ))
        .unwrap();
    }
    let s = Theorem1Structure::build(&view, &db, &[0.5, 0.5, 0.5], 3.0).unwrap();
    for req in cqc_workload::random_requests(&mut r, &view, &db, 60) {
        let expect = evaluate_view(&view, &db, &req).unwrap();
        let got = pushed(|sink| s.enumerator().answer_into(&req, sink));
        assert_eq!(got, expect);
    }
}

/// Example 7: the star join S_n^{b..bf} at the all-ones cover has slack
/// α = n, which the structure exploits (τ^α shrinkage of the dictionary).
#[test]
fn example_7_star_slack() {
    for n in [2usize, 3] {
        let pattern = "b".repeat(n) + "f";
        let view = queries::star(n, &pattern).unwrap();
        let h = view.query().hypergraph();
        let w = vec![1.0; n];
        assert!((slack(&h, &w, view.free_vars()) - n as f64).abs() < 1e-9);

        let mut r = cqc_workload::rng(22);
        let mut db = Database::new();
        for i in 1..=n {
            db.add(cqc_workload::uniform_relation(
                &mut r,
                &format!("R{i}"),
                2,
                120,
                15,
            ))
            .unwrap();
        }
        let s = Theorem1Structure::build(&view, &db, &w, 4.0).unwrap();
        assert!((s.alpha() - n as f64).abs() < 1e-9);
        for req in cqc_workload::witness_requests(&mut r, &view, &db, 40) {
            let expect = evaluate_view(&view, &db, &req).unwrap();
            let got = pushed(|sink| s.enumerator().answer_into(&req, sink));
            assert_eq!(got, expect, "n={n} req={req:?}");
        }
    }
}

/// §3.1 / [13]: the fast-set-intersection structure is the special case
/// S_2^{bbf} over a membership relation; `exists` answers the boolean
/// 2-SetDisjointness question.
#[test]
fn set_intersection_special_case() {
    let view = queries::set_intersection().unwrap();
    let mut r = cqc_workload::rng(23);
    let zipf = cqc_workload::Zipf::new(40, 1.1);
    let rel = cqc_workload::gen::zipf_pairs(&mut r, "R", 300, 25, &zipf);
    let mut db = Database::new();
    db.add(rel).unwrap();

    let weights = Some(vec![1.0, 1.0]);
    let s = CompressedView::build(&view, &db, Strategy::Tradeoff { tau: 3.0, weights }).unwrap();
    let alpha = s.theorem1().expect("a Theorem 1 view").alpha();
    assert!((alpha - 2.0).abs() < 1e-9, "α = k = 2");
    for s1 in 0..25u64 {
        for s2 in 0..25u64 {
            let expect = evaluate_view(&view, &db, &[s1, s2]).unwrap();
            let got = pushed(|sink| s.answer_into(&[s1, s2], sink));
            assert_eq!(got, expect);
            assert_eq!(s.exists(&[s1, s2]).unwrap(), !expect.is_empty());
        }
    }
}

/// Example 9 + Figure 2: the right-hand decomposition of the path-6 query
/// has δ-width 5/3 and δ-height 1/2 under δ = (1/3, 1/6, 0), and fhw 2 at
/// δ = 0.
#[test]
fn example_9_figure_2_widths() {
    let h = cqc_query::Hypergraph::new(7, (0..6).map(|i| vs(&[i, i + 1])).collect());
    let td = TreeDecomposition::new(
        vec![
            vs(&[0, 4, 5]),
            vs(&[1, 3, 0, 4]),
            vs(&[2, 1, 3]),
            vs(&[6, 5]),
        ],
        vec![None, Some(0), Some(1), Some(0)],
    )
    .unwrap();
    td.validate_connex(&h, vs(&[0, 4, 5])).unwrap();
    let w = decomposition_widths(&h, &td, &[0.0, 1.0 / 3.0, 1.0 / 6.0, 0.0]).unwrap();
    assert!((w.delta_width - 5.0 / 3.0).abs() < 1e-6);
    assert!((w.delta_height - 0.5).abs() < 1e-9);
    assert!((w.u_star - 2.0).abs() < 1e-6);
    assert!((connex_fhw(&h, &td).unwrap() - 2.0).abs() < 1e-6);
}

/// Example 10: for the path query P_4^{bfffb}, Theorem 1's direct tradeoff
/// needs a ⌈n/2⌉ = 2 exponent, while the paper's two-level decomposition
/// realizes space exponent 2 with *zero* delay, and smaller budgets trade
/// height for space. Both answer correctly.
#[test]
fn example_10_path_theorem1_vs_theorem2() {
    let n = 4;
    let view = queries::path(n, &queries::path_pattern(n)).unwrap();
    let mut r = cqc_workload::rng(24);
    let mut db = Database::new();
    for i in 1..=n {
        db.add(cqc_workload::uniform_relation(
            &mut r,
            &format!("R{i}"),
            2,
            90,
            10,
        ))
        .unwrap();
    }

    // Theorem 1 path.
    let t1 = Theorem1Structure::build(&view, &db, &[1.0, 0.0, 1.0, 0.0], 4.0);
    // (1,0,1,0) covers x1..x5? x2 is covered by R1, x3 by... R2 has weight
    // 0 and R3 covers x3,x4 at 1; x5 by R4 at 0 — not a cover; use
    // (1,1,1,1) instead (ρ = 4 ≥ ⌈n/2⌉; the point here is correctness).
    assert!(t1.is_err() || t1.is_ok());
    let t1 = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0, 1.0], 4.0).unwrap();

    // Theorem 2 at the paper's decomposition.
    let td = TreeDecomposition::new(
        vec![vs(&[0, 4]), vs(&[0, 1, 3, 4]), vs(&[1, 2, 3])],
        vec![None, Some(0), Some(1)],
    )
    .unwrap();
    let t2_zero = Theorem2Structure::build(&view, &db, &td, &[0.0; 3]).unwrap();
    let t2_delay = Theorem2Structure::build(&view, &db, &td, &[0.0, 0.4, 0.2]).unwrap();
    // Delayed bags store strictly less than materialized ones.
    assert!(t2_delay.stats().materialized_tuples <= t2_zero.stats().materialized_tuples);

    for req in cqc_workload::witness_requests(&mut r, &view, &db, 50) {
        let expect = evaluate_view(&view, &db, &req).unwrap();
        let a = pushed(|sink| t1.enumerator().answer_into(&req, sink));
        let b = pushed(|sink| t2_zero.answer_into(&req, sink));
        let c = pushed(|sink| t2_delay.answer_into(&req, sink));
        assert_eq!(a, expect, "theorem 1");
        assert_eq!(sorted(b), expect, "theorem 2 δ=0");
        assert_eq!(sorted(c), expect, "theorem 2 mixed δ");
    }
}

/// Examples 16/17 and Figure 7 through the search API.
#[test]
fn appendix_d_width_relations() {
    // Example 16: R(x,y), S(y,z), V_b = {x,z}: fhw(H) = 1 < fhw(H|V_b) = 2.
    let h = cqc_query::Hypergraph::new(3, vec![vs(&[0, 1]), vs(&[1, 2])]);
    let free_fhw = search_connex(&h, VarSet::EMPTY, Objective::MinimizeWidth).unwrap();
    assert!((free_fhw.score - 1.0).abs() < 1e-6);
    let bound_fhw = search_connex(&h, vs(&[0, 2]), Objective::MinimizeWidth).unwrap();
    assert!((bound_fhw.score - 2.0).abs() < 1e-6);

    // Figure 7: fhw(H) = 2 while fhw(H | V_b) = 3/2.
    let h7 = cqc_query::Hypergraph::new(
        5,
        vec![
            vs(&[0, 1]),
            vs(&[1, 2]),
            vs(&[2, 3]),
            vs(&[3, 0]),
            vs(&[0, 4]),
            vs(&[1, 4]),
        ],
    );
    let w = search_connex(&h7, vs(&[0, 1, 2, 3]), Objective::MinimizeWidth).unwrap();
    assert!(
        (w.score - 1.5).abs() < 1e-6,
        "fhw(H|Vb) = 3/2, got {}",
        w.score
    );
}

/// Figure 2, left side: the C = ∅ decomposition of the 6-path (the plain
/// fractional-hypertree decomposition used for full enumeration) validates,
/// has width 1 (acyclic), and drives a linear-size factorized
/// representation.
#[test]
fn figure_2_left_decomposition() {
    let h = cqc_query::Hypergraph::new(7, (0..6).map(|i| vs(&[i, i + 1])).collect());
    assert!(h.is_acyclic());
    // Chain of the six edges under an empty root.
    let td = TreeDecomposition::new(
        vec![
            VarSet::EMPTY,
            vs(&[0, 1]),
            vs(&[1, 2]),
            vs(&[2, 3]),
            vs(&[3, 4]),
            vs(&[4, 5]),
            vs(&[5, 6]),
        ],
        vec![None, Some(0), Some(1), Some(2), Some(3), Some(4), Some(5)],
    )
    .unwrap();
    td.validate_connex(&h, VarSet::EMPTY).unwrap();
    assert!(
        (connex_fhw(&h, &td).unwrap() - 1.0).abs() < 1e-6,
        "acyclic width 1"
    );

    // Drive Prop. 2 through it: linear-size, constant-delay full
    // enumeration of the 6-path query.
    let view = cqc_query::parser::parse_adorned(
        "P(v1,v2,v3,v4,v5,v6,v7) :- E1(v1,v2), E2(v2,v3), E3(v3,v4), E4(v4,v5), E5(v5,v6), E6(v6,v7)",
        "fffffff",
    )
    .unwrap();
    let mut r = cqc_workload::rng(28);
    let mut db = Database::new();
    for i in 1..=6 {
        db.add(cqc_workload::uniform_relation(
            &mut r,
            &format!("E{i}"),
            2,
            60,
            9,
        ))
        .unwrap();
    }
    let rep = Theorem2Structure::build(&view, &db, &td, &vec![0.0; td.len()]).unwrap();
    assert!(
        rep.stats().materialized_tuples <= db.size(),
        "semijoin-reduced ≤ |D|"
    );
    let expect = evaluate_view(&view, &db, &[]).unwrap();
    let got = pushed(|sink| rep.answer_into(&[], sink));
    assert_eq!(sorted(got), expect);
}

/// Proposition 1: all-bound views answer with membership checks in linear
/// space — Theorem 2 over the one-bag decomposition `{V_b}`, every atom a
/// root check on the database's own relation.
#[test]
fn proposition_1_bound_only() {
    let view = queries::triangle_self("bbb").unwrap();
    let mut r = cqc_workload::rng(25);
    let mut db = Database::new();
    db.add(cqc_workload::graphs::friendship_graph(&mut r, 40, 200, 0.7))
        .unwrap();
    let sel = select(&view, &db, &Policy::default()).unwrap();
    assert_eq!(sel.tag, "bound-only");
    let cv = CompressedView::build(&view, &db, sel.strategy).unwrap();
    assert_eq!(
        cv.stats().bags,
        0,
        "Prop. 1 is Theorem 2: {}",
        cv.describe()
    );
    // Linear space: the three root checks report the relation's content
    // once per atom, and nothing else but the head.
    let rows = 8 * 2 * db.size();
    assert!(cv.heap_bytes() <= 3 * rows + 128, "{}", cv.describe());
    for req in cqc_workload::witness_requests(&mut r, &view, &db, 100) {
        let expect = !evaluate_view(&view, &db, &req).unwrap().is_empty();
        assert_eq!(cv.exists(&req).unwrap(), expect);
    }
}

/// Propositions 2 & 4: acyclic full enumeration through the factorized
/// strategy is linear-size; the triangle needs |D|^{3/2}-style bag blowup.
#[test]
fn propositions_2_and_4_factorized() {
    let mut r = cqc_workload::rng(26);
    // Acyclic: the 3-path, full enumeration.
    let view = queries::path(3, "ffff").unwrap();
    let mut db = Database::new();
    for i in 1..=3 {
        db.add(cqc_workload::uniform_relation(
            &mut r,
            &format!("R{i}"),
            2,
            100,
            14,
        ))
        .unwrap();
    }
    let cv = CompressedView::build(&view, &db, Strategy::Factorized).unwrap();
    // Linear-ish: bag tuples bounded by Σ|R_F| after semijoins (acyclic
    // bags are single edges up to subsumption).
    let stats = cv.stats();
    assert_eq!(stats.tradeoff_bags, 0, "the factorized recipe is δ ≡ 0");
    assert!(stats.materialized_tuples <= 2 * db.size());
    let expect = evaluate_view(&view, &db, &[]).unwrap();
    let got = pushed(|sink| cv.answer_into(&[], sink));
    assert_eq!(sorted(got), expect);
}

/// §3.3: k-SetDisjointness through first-answer probes at several space
/// points — the boolean query costs Õ(τ) at space Õ(N^k/τ^k).
#[test]
fn k_set_disjointness_probes() {
    let view = queries::k_set_disjointness(3).unwrap();
    let mut r = cqc_workload::rng(27);
    let zipf = cqc_workload::Zipf::new(30, 1.0);
    let rel = cqc_workload::gen::zipf_pairs(&mut r, "R", 250, 20, &zipf);
    let mut db = Database::new();
    db.add(rel).unwrap();
    for tau in [1.0, 4.0, 16.0] {
        let weights = Some(vec![1.0; 3]);
        let s = CompressedView::build(&view, &db, Strategy::Tradeoff { tau, weights }).unwrap();
        assert!((s.theorem1().expect("a Theorem 1 view").alpha() - 3.0).abs() < 1e-9);
        for _ in 0..60 {
            let a = r_range(&mut r, 20);
            let b = r_range(&mut r, 20);
            let c = r_range(&mut r, 20);
            let expect = !evaluate_view(&view, &db, &[a, b, c]).unwrap().is_empty();
            assert_eq!(s.exists(&[a, b, c]).unwrap(), expect);
        }
    }
}

fn r_range(r: &mut rand::rngs::StdRng, hi: u64) -> Value {
    use rand::Rng;
    r.gen_range(0..hi)
}

/// §6 end-to-end: MinDelayCover and MinSpaceCover drive the public
/// `Strategy::Tradeoff { weights: None }` path, and the tradeoff curve is
/// monotone.
#[test]
fn section_6_optimizers_monotone() {
    let view = queries::triangle_self("fff").unwrap();
    let h = view.query().hypergraph();
    let sizes = [1.0, 1.0, 1.0];
    let mut last_tau = f64::INFINITY;
    for budget in [1.0, 1.2, 1.5] {
        let c = min_delay_cover(&h, view.free_vars(), &sizes, budget).unwrap();
        assert!(c.log_tau <= last_tau + 1e-9, "more space, less delay");
        last_tau = c.log_tau;
    }
    let mut last_space = f64::INFINITY;
    for delay in [0.0, 0.25, 0.5] {
        let c = min_space_cover(&h, view.free_vars(), &sizes, delay).unwrap();
        assert!(c.log_space <= last_space + 1e-9, "more delay, less space");
        last_space = c.log_space;
    }
}
