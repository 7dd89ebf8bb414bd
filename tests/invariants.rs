//! Structural invariants of the §4 machinery, checked end to end:
//! the delay-balanced tree partitions the output space, thresholds and
//! halving hold on random instances, and deeper Theorem 2 chains stay
//! equivalent to the oracle.

use cqc_common::value::Tuple;
use cqc_common::AnswerBlock;
use cqc_core::cost::CostEstimator;
use cqc_core::dbtree::{tau_level, Cursor, DelayBalancedTree};
use cqc_core::fbox::{lex_cmp_ranks, FInterval};
use cqc_core::theorem1::Theorem1Structure;
use cqc_core::theorem2::Theorem2Structure;
use cqc_join::naive::evaluate_view;
use cqc_lp::covers::slack;
use cqc_query::parser::parse_adorned;
use cqc_query::{Var, VarSet};
use cqc_storage::Database;
use std::cmp::Ordering;

fn vs(vars: &[u32]) -> VarSet {
    vars.iter().map(|&v| Var(v)).collect()
}

/// The answers one `answer_into` call pushes, in the order pushed.
fn pushed(answer_into: impl FnOnce(&mut AnswerBlock) -> cqc_common::Result<()>) -> Vec<Tuple> {
    let mut block = AnswerBlock::new();
    answer_into(&mut block).unwrap();
    block.to_tuples()
}

/// Every leaf interval plus every internal split point, in in-order
/// traversal, must partition the root interval in strictly increasing
/// lexicographic order — the property behind Algorithm 2's ordered,
/// duplicate-free output.
fn check_tree_partitions(tree: &DelayBalancedTree) {
    // Collect the in-order sequence of (interval-or-point) pieces.
    enum Piece {
        Leaf(FInterval),
        Point(Vec<usize>),
    }
    let mut pieces: Vec<Piece> = Vec::new();
    // In-order traversal with an explicit stack of cursors, each carrying
    // its node's interval down from the root.
    enum Frame {
        Enter(Cursor, FInterval),
        Emit(Vec<usize>),
    }
    let root = tree.root_interval();
    let mu = root.mu();
    let mut stack = vec![Frame::Enter(tree.root(), root.clone())];
    while let Some(f) = stack.pop() {
        match f {
            Frame::Enter(c, interval) => {
                let mut beta = vec![0; mu];
                let n = tree.node(c, &interval.lo, &interval.hi, &mut beta);
                let child = |right: bool| {
                    let mut bounds = Vec::new();
                    tree.child_interval_into(right, &interval.lo, &interval.hi, &beta, &mut bounds);
                    let hi = bounds.split_off(mu);
                    FInterval { lo: bounds, hi }
                };
                if n.is_leaf() {
                    pieces.push(Piece::Leaf(interval));
                    continue;
                }
                if let Some(r) = n.right {
                    stack.push(Frame::Enter(r, child(true)));
                }
                let left = n.left.map(|l| Frame::Enter(l, child(false)));
                stack.push(Frame::Emit(beta));
                stack.extend(left);
            }
            Frame::Emit(beta) => pieces.push(Piece::Point(beta)),
        }
    }
    // The pieces must tile the root interval exactly: strictly increasing,
    // gap-free coverage.
    let mut last_hi: Option<Vec<usize>> = None;
    for p in &pieces {
        let (lo, hi) = match p {
            Piece::Leaf(i) => (i.lo.clone(), i.hi.clone()),
            Piece::Point(b) => (b.clone(), b.clone()),
        };
        assert!(lex_cmp_ranks(&lo, &hi) != Ordering::Greater);
        match &last_hi {
            None => assert_eq!(lo, root.lo, "first piece starts at the root lo"),
            Some(prev) => {
                // lo must be the immediate successor of prev.
                assert_eq!(
                    lex_cmp_ranks(prev, &lo),
                    Ordering::Less,
                    "pieces must be strictly increasing"
                );
            }
        }
        last_hi = Some(hi);
    }
    assert_eq!(
        last_hi.as_ref(),
        Some(&root.hi),
        "last piece ends at root hi"
    );
}

fn running_example() -> (cqc_query::AdornedView, Database) {
    use cqc_storage::Relation;
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
    let view = parse_adorned(
        "Q(x, y, z, w1, w2, w3) :- R1(w1, x, y), R2(w2, y, z), R3(w3, x, z)",
        "fffbbb",
    )
    .unwrap();
    (view, db)
}

#[test]
fn balanced_tree_partitions_output_space() {
    let (view, db) = running_example();
    let est = CostEstimator::build(&view, &db, &[1.0, 1.0, 1.0], 2.0).unwrap();
    for tau in [1.0, 2.0, 4.0, 16.0] {
        let tree = DelayBalancedTree::build(&est, tau).unwrap();
        check_tree_partitions(&tree);
    }
}

#[test]
fn random_instance_tree_invariants() {
    let mut rng = cqc_workload::rng(31);
    for trial in 0..6 {
        let mut db = Database::new();
        db.add(cqc_workload::uniform_relation(&mut rng, "R", 2, 80, 12))
            .unwrap();
        db.add(cqc_workload::uniform_relation(&mut rng, "S", 2, 80, 12))
            .unwrap();
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bfb").unwrap();
        let h = view.query().hypergraph();
        let w = [1.0, 1.0];
        let alpha = slack(&h, &w, view.free_vars());
        let est = CostEstimator::build(&view, &db, &w, alpha).unwrap();
        for tau in [1.0, 3.0, 9.0] {
            let Some(tree) = DelayBalancedTree::build(&est, tau) else {
                continue;
            };
            check_tree_partitions(&tree);
            // The tree stores split points only: T(I(w)) is the oracle's.
            let sizes = est.sizes();
            let t_at = |c: Cursor| est.t_interval(&tree.interval(c), &sizes);
            for c in tree.cursors() {
                let (t, thr) = (t_at(c), tau_level(tree.tau, tree.alpha, c.level));
                let FInterval { lo, hi } = tree.interval(c);
                let node = tree.node(c, &lo, &hi, &mut vec![0; lo.len()]);
                if node.is_leaf() {
                    assert!(t < thr, "trial {trial}");
                } else {
                    assert!(t >= thr - 1e-9, "trial {trial}");
                }
                for child in [node.left, node.right].into_iter().flatten() {
                    assert!(
                        t_at(child) <= t / 2.0 + 1e-6,
                        "halving, trial {trial}, node {}",
                        c.node
                    );
                }
            }
        }
    }
}

/// A five-bag chain decomposition of the 6-path with mixed delays: the
/// deepest Theorem 2 configuration in the suite.
#[test]
fn deep_chain_theorem2_equivalence() {
    let view = parse_adorned(
        "P(v1,v2,v3,v4,v5,v6,v7) :- E1(v1,v2), E2(v2,v3), E3(v3,v4), E4(v4,v5), E5(v5,v6), E6(v6,v7)",
        "bfffffb",
    )
    .unwrap();
    let mut rng = cqc_workload::rng(33);
    let mut db = Database::new();
    for i in 1..=6 {
        db.add(cqc_workload::uniform_relation(
            &mut rng,
            &format!("E{i}"),
            2,
            60,
            8,
        ))
        .unwrap();
    }
    // Chain decomposition: {v1,v7} → {v1,v2,v7} → {v2,v3,v7} → … each bag
    // introducing one free variable.
    let td = cqc_decomp::TreeDecomposition::new(
        vec![
            vs(&[0, 6]),
            vs(&[0, 1, 6]),
            vs(&[1, 2, 6]),
            vs(&[2, 3, 6]),
            vs(&[3, 4, 6]),
            vs(&[4, 5, 6]),
        ],
        vec![None, Some(0), Some(1), Some(2), Some(3), Some(4)],
    )
    .unwrap();
    td.validate_connex(&view.query().hypergraph(), vs(&[0, 6]))
        .unwrap();
    for delta in [
        vec![0.0; 6],
        vec![0.0, 0.2, 0.0, 0.3, 0.0, 0.1],
        vec![0.0, 0.4, 0.4, 0.4, 0.4, 0.4],
    ] {
        let s = Theorem2Structure::build(&view, &db, &td, &delta).unwrap();
        for a in 0..8u64 {
            for b in 0..8u64 {
                let expect = evaluate_view(&view, &db, &[a, b]).unwrap();
                // Algorithm 5 promises pre-order of the bags: sort, and
                // only sort — a repeated answer must fail the comparison.
                let mut got = pushed(|sink| s.answer_into(&[a, b], sink));
                got.sort();
                assert_eq!(got, expect, "δ={delta:?} ({a},{b})");
            }
        }
    }
}

/// Theorem 1 structures over self-joins (one relation, three atoms) keep
/// all invariants: the triangle over a single symmetric relation.
#[test]
fn self_join_triangle_invariants() {
    let mut rng = cqc_workload::rng(34);
    let mut db = Database::new();
    db.add(cqc_workload::graphs::friendship_graph(
        &mut rng, 30, 150, 1.0,
    ))
    .unwrap();
    let view = parse_adorned("V(x,y,z) :- R(x,y), R(y,z), R(z,x)", "fbf").unwrap();
    let s = Theorem1Structure::build(&view, &db, &[0.5, 0.5, 0.5], 3.0).unwrap();
    for b in 0..30u64 {
        let expect = evaluate_view(&view, &db, &[b]).unwrap();
        assert_eq!(pushed(|sink| s.answer_into(&[b], sink)), expect);
    }
    if let Some(tree) = s.tree() {
        check_tree_partitions(tree);
    }
}
