//! Property-based equivalence: random databases, random access patterns,
//! random delay knobs — every structure must agree with the naive oracle,
//! in order, without duplicates, and the §4 structural invariants must
//! hold on the constructed trees.

use cqc_common::value::Tuple;
use cqc_common::AnswerBlock;
use cqc_core::cost::CostEstimator;
use cqc_core::dbtree::{tau_level, Cursor};
use cqc_core::fbox::FInterval;
use cqc_core::theorem1::Theorem1Structure;
use cqc_core::theorem2::Theorem2Structure;
use cqc_join::naive::evaluate_view;
use cqc_query::parser::parse_adorned;
use cqc_query::AdornedView;
use cqc_storage::{Database, Relation};
use proptest::prelude::*;

/// A random binary relation as a list of pairs over a small domain.
fn rel_strategy(max_rows: usize, dom: u64) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..dom, 0..dom), 0..max_rows)
}

fn db_from(pairs: &[(&str, Vec<(u64, u64)>)]) -> Database {
    let mut db = Database::new();
    for (name, rows) in pairs {
        db.add(Relation::from_pairs(*name, rows.clone())).unwrap();
    }
    db
}

/// The answers one `answer_into` call pushes, in the order pushed.
fn pushed(answer_into: impl FnOnce(&mut AnswerBlock) -> cqc_common::Result<()>) -> Vec<Tuple> {
    let mut block = AnswerBlock::new();
    answer_into(&mut block).unwrap();
    block.to_tuples()
}

/// All bound-value combinations over `0..dom` for `nb` bound variables.
fn all_requests(nb: usize, dom: u64) -> Vec<Vec<u64>> {
    let mut reqs: Vec<Vec<u64>> = vec![vec![]];
    for _ in 0..nb {
        reqs = reqs
            .iter()
            .flat_map(|r| {
                (0..dom).map(move |v| {
                    let mut r2 = r.clone();
                    r2.push(v);
                    r2
                })
            })
            .collect();
    }
    reqs
}

fn check_theorem1(view: &AdornedView, db: &Database, weights: &[f64], tau: f64, dom: u64) {
    let s = Theorem1Structure::build(view, db, weights, tau).unwrap();
    let nb = view.bound_head().len();
    for req in all_requests(nb, dom) {
        let expect = evaluate_view(view, db, &req).unwrap();
        let got = pushed(|sink| s.enumerator().answer_into(&req, sink));
        assert_eq!(got, expect, "τ={tau} req={req:?}");
    }
    // Structural invariants (Lemma 4 / threshold rules) on the stored tree,
    // which keeps only what Algorithm 2 can reach: every internal node is at
    // or above its threshold and holds an entry, a leaf holds none — one
    // below its threshold by the build, one at or above it because the
    // node held no entry and its subtree was cut — and T halves along every
    // stored edge (Prop. 8). The structure keeps no oracle: T(I(w)) is
    // recomputed from a fresh one.
    if let Some(tree) = s.tree() {
        let est = CostEstimator::build(view, db, s.weights(), s.alpha()).unwrap();
        let sizes = est.sizes();
        let t_at = |c: Cursor| est.t_interval(&tree.interval(c), &sizes);
        let mut walked = 0;
        s.dictionary().walk(tree, |step| {
            let (c, node) = (step.cursor, step.node);
            let (t, thr) = (t_at(c), tau_level(tree.tau, tree.alpha, c.level));
            if node.is_leaf() {
                assert!(
                    step.entries.is_empty(),
                    "a leaf holds an entry (T = {t}, τ_ℓ = {thr})"
                );
            } else {
                assert!(t >= thr - 1e-9, "internal below threshold");
                assert!(!step.entries.is_empty(), "an internal node holds no entry");
            }
            for child in [node.left, node.right].into_iter().flatten() {
                assert!(
                    t_at(child) <= t / 2.0 + 1e-6,
                    "Prop 8 halving violated at node {}",
                    c.node
                );
            }
            walked += 1;
            true
        });
        assert_eq!(walked, tree.len(), "the walk reaches every stored node");
    }
}

/// The sub-view `E_{V_b}` of Prop. 13: the atoms touching a bound
/// variable, with the bound variables first in the head. A valuation `v_b`
/// is a dictionary *candidate* iff this view has an answer for it.
fn bound_touching_view(view: &AdornedView) -> AdornedView {
    let q = view.query();
    let bound = view.bound_head();
    let touching: Vec<_> = q
        .atoms
        .iter()
        .filter(|a| a.vars().any(|v| bound.contains(&v)))
        .collect();
    let mut head = bound.clone();
    for v in touching.iter().flat_map(|a| a.vars()) {
        if !head.contains(&v) {
            head.push(v);
        }
    }
    let names = |vars: Vec<cqc_query::Var>| -> String {
        let names: Vec<&str> = vars.iter().map(|&v| q.var_name(v)).collect();
        names.join(",")
    };
    let body: Vec<String> = touching
        .iter()
        .map(|a| format!("{}({})", a.relation, names(a.vars().collect())))
        .collect();
    let text = format!("E({}) :- {}", names(head.clone()), body.join(", "));
    let pattern = "b".repeat(bound.len()) + &"f".repeat(head.len() - bound.len());
    parse_adorned(&text, &pattern).unwrap()
}

/// Whether Algorithm 2's `⊥` branch at `I(w)` finds an answer for `vb`
/// within `LIGHT_WORK_CAP · τ` counted units, re-derived through the public
/// serve path: `direct` is the instance at τ = ∞ (a root leaf, `⊥` for
/// every valuation), and asked for the range `I(w)` it runs exactly that
/// branch, plus its one root lookup.
fn light_by_work(
    direct: &Theorem1Structure,
    est: &CostEstimator,
    vb: &[u64],
    interval: &FInterval,
    tau: f64,
) -> bool {
    let (lo, hi) = (
        est.ranks_to_values(&interval.lo),
        est.ranks_to_values(&interval.hi),
    );
    let before = cqc_common::metrics::snapshot().work();
    let answers = pushed(|sink| direct.enumerator().answer_range_into(vb, &lo, &hi, sink));
    let work = cqc_common::metrics::snapshot().work() - before - 1;
    !answers.is_empty() && work as f64 <= cqc_core::dictionary::LIGHT_WORK_CAP * tau
}

/// The brute-force heavy-pair oracle of `example_15_dictionary_entries`,
/// over the whole bound grid: `(w, v_b)` is stored iff `v_b` is a
/// candidate, `T(v_b, I(w)) > τ_ℓ` (Def. 3), `w`'s parent stores `v_b` as
/// `1` (the root: iff heavy) — a pair under a parent without it, or under
/// a `0`, is never read — and the pair is not [`light_by_work`]; its bit
/// says whether the naive join has an answer inside `I(w)`. Also pins
/// the point lookups against it, and that a valuation keeps a candidate id
/// iff some node stores it (keeping every root candidate in the
/// dictionary build fails here).
fn check_dictionary_layout(view: &AdornedView, db: &Database, weights: &[f64], tau: f64, dom: u64) {
    use cqc_common::util::approx_gt;
    use std::collections::BTreeSet;
    let s = Theorem1Structure::build(view, db, weights, tau).unwrap();
    let dict = s.dictionary();
    let Some(tree) = s.tree() else {
        assert_eq!(dict.num_entries(), 0);
        return;
    };
    let est = CostEstimator::build(view, db, s.weights(), s.alpha()).unwrap();
    let direct = Theorem1Structure::build(view, db, weights, f64::INFINITY).unwrap();
    let sizes = est.sizes();
    let candidates = bound_touching_view(view);
    let mut parent = vec![None; tree.num_slots()];
    for c in tree.cursors() {
        let FInterval { lo, hi } = tree.interval(c);
        let node = tree.node(c, &lo, &hi, &mut vec![0; lo.len()]);
        for child in [node.left, node.right].into_iter().flatten() {
            parent[child.node as usize] = Some(c.node);
        }
    }
    let mut expect: BTreeSet<(u32, Vec<u64>, bool)> = BTreeSet::new();
    for vb in all_requests(view.bound_head().len(), dom) {
        let is_candidate = !evaluate_view(&candidates, db, &vb).unwrap().is_empty();
        let mut stored = false;
        let answers: Vec<Vec<usize>> = evaluate_view(view, db, &vb)
            .unwrap()
            .iter()
            .map(|t| {
                let ranks = t.iter().zip(est.domains()).map(|(v, d)| d.rank(*v));
                ranks
                    .collect::<Option<_>>()
                    .expect("answers lie on the grid")
            })
            .collect();
        // The cursors come in level order: a parent's verdict is in first.
        // `held[w]`: `w` stores `v_b` as `1`.
        let mut held = vec![false; tree.num_slots()];
        for c in tree.cursors() {
            let (w, interval) = (c.node, tree.interval(c));
            let heavy = is_candidate
                && parent[w as usize].map_or(true, |p| held[p as usize])
                && approx_gt(
                    est.t_interval_bound(&vb, &interval, &sizes),
                    tau_level(tree.tau, tree.alpha, c.level),
                )
                && !light_by_work(&direct, &est, &vb, &interval, tau);
            let bit = answers.iter().any(|a| interval.contains(a));
            held[w as usize] = heavy && bit;
            // A leaf has no row and is ⊥ for every valuation.
            let rank = tree.internal_rank(w);
            assert_eq!(
                rank.and_then(|r| dict.get(tree, r, &vb)),
                heavy.then_some(bit),
                "τ={tau} node {w} v_b={vb:?}"
            );
            if heavy {
                let rank = rank.expect("heavy pairs lie at internal nodes");
                expect.insert((rank, vb.clone(), bit));
                stored = true;
            }
        }
        // A valuation no node stores is `⊥` everywhere: it keeps no
        // candidate id (under a root leaf, none does).
        assert_eq!(dict.candidate(&vb).is_some(), stored, "v_b={vb:?}");
    }
    let got: Vec<(u32, Vec<u64>, bool)> = dict.entries(tree).collect();
    assert!(
        got.windows(2).all(|p| p[0] < p[1]),
        "entries() runs in (internal rank, v_b) order without repeats"
    );
    assert_eq!(got.len(), dict.num_entries());
    assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), expect, "τ={tau}");
}

/// Maintained ≡ rebuilt, and the maintained structure shares its tree and
/// dictionary keys with its predecessor (only the bits are its own).
fn check_maintained_shares_layout(
    view: &AdornedView,
    db: &Database,
    names: &[&str],
    weights: &[f64],
    tau: f64,
    dom: u64,
    seed: u64,
) {
    use cqc_core::{CompressedView, MaintainOutcome, Strategy};
    let strategy = Strategy::Tradeoff {
        tau,
        weights: Some(weights.to_vec()),
    };
    let built = CompressedView::build(view, db, strategy.clone()).unwrap();
    let delta = cqc_workload::mixed_delta(&mut cqc_workload::rng(seed), db, names, 2, 1);
    let mut db = db.clone();
    db.apply(&delta).unwrap();
    // Active-domain changes legitimately ask for a rebuild.
    let Ok(MaintainOutcome::Maintained { view: kept, .. }) = built.maintain(view, &db, &delta)
    else {
        return;
    };
    let (Some(old), Some(new)) = (built.theorem1(), kept.theorem1()) else {
        panic!("Theorem 1 views expected");
    };
    assert!(new.shares_layout_with(old), "tree and keys are Arc-shared");
    let keys = |t: &Theorem1Structure| -> Vec<(u32, Vec<u64>)> {
        let entries = t.dictionary().entries(t.tree().expect("a maintained tree"));
        entries.map(|(w, vb, _)| (w, vb)).collect()
    };
    assert_eq!(keys(new), keys(old), "maintenance only flips bits");
    let rebuilt = CompressedView::build(view, &db, strategy).unwrap();
    for req in all_requests(view.bound_head().len(), dom) {
        let expect = evaluate_view(view, &db, &req).unwrap();
        let got = pushed(|sink| kept.answer_into(&req, sink));
        let re = pushed(|sink| rebuilt.answer_into(&req, sink));
        assert_eq!(got, expect, "maintained, τ={tau} req={req:?}");
        assert_eq!(re, expect, "rebuilt, τ={tau} req={req:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// Triangle over three random relations, every adornment with ≤ 2 bound
    /// variables, random τ.
    #[test]
    fn theorem1_triangle_roundtrip(
        r in rel_strategy(30, 6),
        s in rel_strategy(30, 6),
        t in rel_strategy(30, 6),
        pattern in prop::sample::select(vec!["fff", "bff", "fbf", "ffb", "bbf", "bfb", "fbb"]),
        tau in 1.0f64..24.0,
    ) {
        let db = db_from(&[("R", r), ("S", s), ("T", t)]);
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
        check_theorem1(&view, &db, &[0.5, 0.5, 0.5], tau, 6);
    }

    /// Layout equivalence: the flat CSR dictionary holds exactly the
    /// brute-force heavy pairs with the naive bits, over triangle, path and
    /// star databases, adornments and τ ∈ {1, 2, 8, 64}; maintenance shares
    /// the static buffers. The all-ones triangle cover (α = 2) and the
    /// centre-free star (α = 3) make the thresholds τ_ℓ decay with depth,
    /// so a pair can be light at a node and heavy below it — the case the
    /// build's light-forever rule must keep alive.
    #[test]
    fn flat_dictionary_equals_heavy_pair_oracle(
        r in rel_strategy(60, 8),
        s in rel_strategy(60, 8),
        t in rel_strategy(60, 8),
        tri_pattern in prop::sample::select(vec!["bff", "fbf", "bbf", "bfb", "fbb"]),
        path_pattern in prop::sample::select(vec!["bff", "fbf", "bfb", "ffb"]),
        seed in 0u64..1000,
    ) {
        let db = db_from(&[("R", r), ("S", s), ("T", t)]);
        let tri = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", tri_pattern).unwrap();
        let path = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", path_pattern).unwrap();
        let star = parse_adorned("Q(x,a,b,c) :- R(x,a), S(x,b), T(x,c)", "fbbb").unwrap();
        for tau in [1.0, 2.0, 8.0, 64.0] {
            check_dictionary_layout(&tri, &db, &[0.5, 0.5, 0.5], tau, 8);
            check_dictionary_layout(&tri, &db, &[1.0, 1.0, 1.0], tau, 8);
            check_dictionary_layout(&path, &db, &[1.0, 1.0], tau, 8);
            check_dictionary_layout(&star, &db, &[1.0, 1.0, 1.0], tau, 8);
            check_maintained_shares_layout(
                &tri, &db, &["R", "S", "T"], &[1.0, 1.0, 1.0], tau, 8, seed,
            );
            check_maintained_shares_layout(
                &star, &db, &["R", "S", "T"], &[1.0, 1.0, 1.0], tau, 8, seed,
            );
            check_maintained_shares_layout(
                &tri, &db, &["R", "S", "T"], &[0.5, 0.5, 0.5], tau, 8, seed,
            );
            check_maintained_shares_layout(&path, &db, &["R", "S"], &[1.0, 1.0], tau, 8, seed);
        }
    }

    /// Two-path (the paper's P_2^{ff} example of a non-factorizable-to-
    /// linear query) plus star-shaped adornments, with the all-ones cover.
    #[test]
    fn theorem1_two_path_roundtrip(
        r in rel_strategy(35, 7),
        s in rel_strategy(35, 7),
        pattern in prop::sample::select(vec!["fff", "bff", "ffb", "fbf", "bfb"]),
        tau in 1.0f64..16.0,
    ) {
        let db = db_from(&[("R", r), ("S", s)]);
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", pattern).unwrap();
        check_theorem1(&view, &db, &[1.0, 1.0], tau, 7);
    }

    /// Set intersection S_2^{bbf} over one random membership relation — the
    /// self-join case where both atoms share an index.
    #[test]
    fn theorem1_set_intersection_roundtrip(
        r in rel_strategy(45, 8),
        tau in 1.0f64..12.0,
    ) {
        let db = db_from(&[("R", r)]);
        let view = parse_adorned("Q(a, b, z) :- R(a, z), R(b, z)", "bbf").unwrap();
        check_theorem1(&view, &db, &[1.0, 1.0], tau, 8);
    }

    /// Theorem 2 on the 3-path with random per-bag delays: equivalence +
    /// duplicate freedom.
    #[test]
    fn theorem2_path3_roundtrip(
        r1 in rel_strategy(25, 5),
        r2 in rel_strategy(25, 5),
        r3 in rel_strategy(25, 5),
        d1 in 0.0f64..0.7,
        d2 in 0.0f64..0.7,
    ) {
        use cqc_query::{Var, VarSet};
        let db = db_from(&[("R1", r1), ("R2", r2), ("R3", r3)]);
        let view = parse_adorned(
            "P(x1,x2,x3,x4) :- R1(x1,x2), R2(x2,x3), R3(x3,x4)", "bffb",
        ).unwrap();
        let vs = |vars: &[u32]| -> VarSet { vars.iter().map(|&v| Var(v)).collect() };
        let td = cqc_decomp::TreeDecomposition::new(
            vec![vs(&[0, 3]), vs(&[0, 1, 2, 3]), ],
            vec![None, Some(0)],
        ).unwrap();
        let td2 = cqc_decomp::TreeDecomposition::new(
            vec![vs(&[0, 3]), vs(&[0, 1, 3]), vs(&[1, 2, 3])],
            vec![None, Some(0), Some(1)],
        ).unwrap();
        for (td, delta) in [(td, vec![0.0, d1]), (td2, vec![0.0, d1, d2])] {
            let s = Theorem2Structure::build(&view, &db, &td, &delta).unwrap();
            for req in all_requests(2, 5) {
                let expect = evaluate_view(&view, &db, &req).unwrap();
                // Pre-order of the bags, not head order: sort, and only
                // sort — a repeated answer must fail the comparison.
                let mut got = pushed(|sink| s.enumerator().answer_into(&req, sink));
                got.sort();
                prop_assert_eq!(got, expect, "mismatch at {:?}", &req);
            }
        }
    }

    /// Oracle cross-validation: the nested-loop oracle and the independent
    /// hash-join evaluator agree on random instances and patterns (so tests
    /// validated against either are validated against both).
    #[test]
    fn oracles_agree(
        r in rel_strategy(35, 7),
        s in rel_strategy(35, 7),
        t in rel_strategy(35, 7),
        pattern in prop::sample::select(vec!["fff", "bff", "fbf", "bbf", "bfb", "bbb"]),
    ) {
        let db = db_from(&[("R", r), ("S", s), ("T", t)]);
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
        let nb = view.bound_head().len();
        for req in all_requests(nb, 7) {
            let a = cqc_join::naive::evaluate_view(&view, &db, &req).unwrap();
            let b = cqc_join::hashjoin::evaluate_view_hash(&view, &db, &req).unwrap();
            prop_assert_eq!(a, b, "req {:?}", &req);
        }
    }

    /// Heavy-pair bound (Prop. 7): the dictionary never stores more than
    /// (T(I)/τ_ℓ)^α entries per node.
    #[test]
    fn proposition_7_heavy_bound(
        r in rel_strategy(40, 6),
        s in rel_strategy(40, 6),
        tau in 1.0f64..10.0,
    ) {
        let db = db_from(&[("R", r), ("S", s)]);
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bfb").unwrap();
        let st = Theorem1Structure::build(&view, &db, &[1.0, 1.0], tau).unwrap();
        if let Some(tree) = st.tree() {
            let alpha = st.alpha();
            let est = CostEstimator::build(&view, &db, st.weights(), alpha).unwrap();
            let sizes = est.sizes();
            for c in tree.cursors() {
                let thr = tau_level(tree.tau, tree.alpha, c.level);
                let count = tree
                    .internal_rank(c.node)
                    .map_or(0, |r| st.dictionary().entries_of(tree, r).count()) as f64;
                let t = est.t_interval(&tree.interval(c), &sizes);
                let bound = (t / thr).powf(alpha) + 1e-9;
                prop_assert!(
                    count <= bound,
                    "node {} holds {} heavy pairs > bound {}", c.node, count, bound
                );
            }
        }
    }
}
