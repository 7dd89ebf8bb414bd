//! The front door: one type, [`CompressedView`], over the one
//! representation, [`Theorem2Structure`].
//!
//! Every recipe builds a Theorem 2 structure, after the Example 3 rewrite
//! makes constants and repeated variables acceptable: the factorized
//! representation of Propositions 2/4 and §2.3's "materialize and index"
//! extreme are Theorem 2 at δ ≡ 0 (over a width-minimal decomposition and
//! over `{V_b} → {V}`); Theorem 1 at any τ — §2.3's "answer directly" is τ
//! = ∞ — is Theorem 2 over `{V_b} → {V}` whose one bag is the Theorem 1
//! structure; Proposition 1's all-bound view is the one-bag decomposition
//! `{V_b}`, whose root checks are its membership probes; and a view the
//! rewrite proved empty is that root bag with a check no request passes.
//! Choosing a recipe — budgets, LP covers, decomposition search — is the
//! planner's job (`cqc_engine::policy::select`), not this module's.

use crate::theorem2::{bound_then_all, Theorem2Structure};
use cqc_common::error::{CqcError, Result};
use cqc_decomp::TreeDecomposition;
use cqc_lp::fractional::min_space_cover;
use cqc_query::rewrite::rewrite_view;
use cqc_query::AdornedView;
use cqc_storage::Database;

/// How to compress a view: a concrete recipe, every knob given.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// The §2.3 extreme "materialize and index": Theorem 2 at δ ≡ 0 over
    /// the two-bag decomposition `{V_b} → {V_b ∪ V_f}`, whose one
    /// materialized bag is `Q(D)` keyed by the bound prefix.
    Materialize,
    /// The §2.3 extreme "answer directly": Theorem 1 at τ = ∞ with weight
    /// 1 on every atom — a one-leaf tree whose leapfrog join over the whole
    /// grid answers each request on the base indexes.
    Direct,
    /// Theorem 1 with delay knob `τ`; `weights` defaults to the
    /// MinSpaceCover optimum for delay budget τ (§6).
    Tradeoff {
        /// The delay knob τ ≥ 1.
        tau: f64,
        /// Optional explicit fractional edge cover (one weight per atom).
        weights: Option<Vec<f64>>,
    },
    /// Theorem 2 over an explicit decomposition and delay assignment.
    DecomposedExplicit {
        /// The `V_b`-connex decomposition.
        td: TreeDecomposition,
        /// Per-node delay exponents (0 at the root).
        delta: Vec<f64>,
    },
    /// Propositions 2/4: Theorem 2 over a width-minimal connex
    /// decomposition with `δ ≡ 0` — every bag materialized, constant delay.
    Factorized,
}

/// A compressed representation of an adorned view, ready to answer access
/// requests: a [`Theorem2Structure`], whose methods it derefs to.
///
/// An enum of one variant whose name is historical: it holds every
/// recipe's structure, not only Theorem 1's. The benchmark package, which
/// changes only with the benchmark, matches `CompressedView::Tradeoff(s)`
/// to read the views' counts off `s.stats()`.
#[derive(Debug)]
pub enum CompressedView {
    /// The one representation, whatever the recipe.
    Tradeoff(Theorem2Structure),
}

impl std::ops::Deref for CompressedView {
    type Target = Theorem2Structure;

    fn deref(&self) -> &Theorem2Structure {
        let CompressedView::Tradeoff(s) = self;
        s
    }
}

impl From<Theorem2Structure> for CompressedView {
    fn from(s: Theorem2Structure) -> CompressedView {
        CompressedView::Tradeoff(s)
    }
}

impl CompressedView {
    /// Compresses `view` over `db` with the chosen strategy.
    ///
    /// Constants and repeated variables are eliminated first (Example 3);
    /// projections are rejected, as in the paper.
    ///
    /// # Errors
    ///
    /// Propagates parse/schema/LP errors and invalid configurations.
    pub fn build(view: &AdornedView, db: &Database, strategy: Strategy) -> Result<CompressedView> {
        CompressedView::build_pooled(view, db, strategy, &cqc_storage::IndexPool::new())
    }

    /// [`CompressedView::build`] drawing sorted indexes from a
    /// caller-supplied [`cqc_storage::IndexPool`]. The engine passes its
    /// one store, so every `(relation, order)` index the view needs that
    /// strategy selection or another view already sorted is shared, not
    /// re-sorted (the Example 3 rewrite shares untouched relations by
    /// `Arc`, which is what makes the store recognize them).
    ///
    /// The pool serves every delay-tuned bag of `{V_b} → {V}`'s shape —
    /// keyed by `V_b`, holding all of `V`: a Theorem 1 view's one bag in
    /// all its forms, `direct` included, and such a bag of an explicit
    /// decomposition. Every other bag is built over a
    /// **bag-local database** — fresh per-bag projections, which an
    /// identity-keyed store can never share across bags or views — and a
    /// delay-tuned one pools its cost-oracle and trie indexes privately.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CompressedView::build`].
    pub fn build_pooled(
        view: &AdornedView,
        db: &Database,
        strategy: Strategy,
        pool: &cqc_storage::IndexPool,
    ) -> Result<CompressedView> {
        // Example 3 preprocessing.
        let rewritten = rewrite_view(view, db)?;
        let view = &rewritten.view;
        let db = &rewritten.database;
        if rewritten.always_empty {
            return Ok(Theorem2Structure::always_empty(view).into());
        }
        view.query().require_natural_join()?;

        // An all-bound view is Prop. 1 under every recipe: the one-bag
        // decomposition `{V_b}`, whose root checks probe every relation.
        // Theorem 1 has no free variable to build a tree over.
        let strategy = if view.mu() == 0 {
            Strategy::Factorized
        } else {
            strategy
        };
        let s = match strategy {
            Strategy::Factorized => Theorem2Structure::build_constant_delay(view, db)?,
            Strategy::Materialize => {
                Theorem2Structure::build(view, db, &bound_then_all(view)?, &[0.0, 0.0])?
            }
            Strategy::Direct => {
                let weights = vec![1.0; view.query().atoms.len()];
                Theorem2Structure::build_theorem1(view, db, &weights, f64::INFINITY, pool)?
            }
            Strategy::Tradeoff { tau, weights } => {
                // (NaN compares false with everything: refuse it here,
                // before it reaches the LP.)
                if tau.is_nan() || tau < 1.0 {
                    return Err(CqcError::Config(format!("τ = {tau} must be ≥ 1")));
                }
                let weights = match weights {
                    Some(w) => w,
                    None => {
                        // §6: given the delay budget, minimize space.
                        let query = view.query();
                        let h = query.hypergraph();
                        let log_sizes: Vec<f64> = query
                            .atoms
                            .iter()
                            .map(|a| {
                                let n = db.require(&a.relation).map(|r| r.len().max(2));
                                n.map(|n| (n as f64).ln())
                            })
                            .collect::<Result<_>>()?;
                        let choice = min_space_cover(&h, view.free_vars(), &log_sizes, tau.ln())?;
                        choice.weights
                    }
                };
                Theorem2Structure::build_theorem1(view, db, &weights, tau, pool)?
            }
            Strategy::DecomposedExplicit { td, delta } => {
                Theorem2Structure::build_pooled(view, db, &td, &delta, pool)?
            }
        };
        Ok(s.into())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cqc_common::value::{lex_cmp, Tuple, Value};
    use cqc_join::naive::evaluate_view;
    use cqc_query::parser::parse_adorned;
    use cqc_storage::Relation;

    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs(
            "R",
            vec![(1, 2), (2, 3), (1, 3), (3, 1), (2, 1), (4, 2)],
        ))
        .unwrap();
        db.add(Relation::from_pairs(
            "S",
            vec![(2, 3), (3, 1), (3, 2), (1, 2), (2, 4)],
        ))
        .unwrap();
        db.add(Relation::from_pairs(
            "T",
            vec![(3, 1), (1, 2), (2, 3), (2, 1), (4, 4)],
        ))
        .unwrap();
        db
    }

    /// The request's answers, in the order a fresh enumerator pushes them.
    fn answers(cv: &CompressedView, req: &[Value]) -> Vec<Tuple> {
        let mut block = cqc_common::AnswerBlock::new();
        cv.answer_into(req, &mut block).unwrap();
        block.to_tuples()
    }

    /// What the planner resolves a space budget to: Theorem 2 over the
    /// decomposition minimizing δ-height under `|D|^budget_exp` (§6).
    pub(crate) fn decomposed(view: &AdornedView, budget_exp: f64) -> Strategy {
        let objective = cqc_decomp::Objective::MinimizeHeightUnderBudget { budget_exp };
        let h = view.query().hypergraph();
        let found = cqc_decomp::search_connex(&h, view.bound_vars(), objective).unwrap();
        Strategy::DecomposedExplicit {
            td: found.td,
            delta: found.delta,
        }
    }

    #[test]
    fn every_strategy_matches_oracle_on_triangle() {
        let db = triangle_db();
        for pattern in ["bfb", "fff", "bbf"] {
            let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
            let nb = pattern.chars().filter(|c| *c == 'b').count();
            let strategies: Vec<Strategy> = vec![
                Strategy::Materialize,
                Strategy::Direct,
                Strategy::Tradeoff {
                    tau: 1.0,
                    weights: None,
                },
                Strategy::Tradeoff {
                    tau: 3.0,
                    weights: Some(vec![0.5, 0.5, 0.5]),
                },
                Strategy::Factorized,
                decomposed(&view, 1.2),
                decomposed(&view, 1.5),
            ];
            for strat in &strategies {
                let cv = CompressedView::build(&view, &db, strat.clone()).unwrap();
                let mut reqs: Vec<Vec<Value>> = vec![vec![]];
                for _ in 0..nb {
                    reqs = reqs
                        .iter()
                        .flat_map(|r| {
                            (0..6u64).map(move |v| {
                                let mut r2 = r.clone();
                                r2.push(v);
                                r2
                            })
                        })
                        .collect();
                }
                for req in reqs {
                    let expect = evaluate_view(&view, &db, &req).unwrap();
                    let mut got = answers(&cv, &req);
                    // A searched decomposition promises pre-order of its
                    // bags; every other recipe — `materialize`'s one bag
                    // under the bound root included — the oracle's head
                    // order. Sort only those, keyed by the recipe and not
                    // by the structure, and never deduplicate.
                    if matches!(
                        strat,
                        Strategy::Factorized | Strategy::DecomposedExplicit { .. }
                    ) {
                        got.sort_unstable_by(|a, b| lex_cmp(a, b));
                    }
                    assert_eq!(
                        got,
                        expect,
                        "strategy {} pattern {pattern} req {req:?}",
                        cv.strategy_name()
                    );
                }
            }
        }
    }

    /// An all-bound view is Prop. 1 under every recipe: Theorem 2 over the
    /// one-bag decomposition `{V_b}`, no bag below the root, its root
    /// checks probing every relation. Access arity is still validated.
    #[test]
    fn bound_only_dispatch() {
        let db = triangle_db();
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bbb").unwrap();
        let tau = Strategy::Tradeoff {
            tau: 2.0,
            weights: None,
        };
        let recipes = [
            Strategy::Materialize,
            Strategy::Direct,
            tau,
            Strategy::Factorized,
            decomposed(&view, 1.5),
        ];
        for strat in recipes {
            let cv = CompressedView::build(&view, &db, strat.clone()).unwrap();
            assert_eq!(cv.stats().bags, 0, "{strat:?}: {}", cv.describe());
            assert!(cv.describe().starts_with("theorem 2: 0 bags"), "{strat:?}");
            assert!(cv.exists(&[1, 2, 3]).unwrap());
            assert!(!cv.exists(&[1, 1, 1]).unwrap());
            assert_eq!(answers(&cv, &[1, 2, 3]), vec![Vec::<Value>::new()]);
            assert!(answers(&cv, &[1, 1, 1]).is_empty());
            assert!(cv.exists(&[1, 2]).is_err(), "{strat:?}: access arity");
        }
    }

    #[test]
    fn rewrite_applied_for_constants() {
        // Example 3 style: constants are eliminated before compression.
        let mut db = Database::new();
        db.add(Relation::new(
            "R",
            3,
            vec![vec![1, 2, 9], vec![1, 3, 9], vec![2, 2, 5]],
        ))
        .unwrap();
        let view = parse_adorned("Q(x, y) :- R(x, y, 9)", "bf").unwrap();
        let cv = CompressedView::build(
            &view,
            &db,
            Strategy::Tradeoff {
                tau: 1.0,
                weights: None,
            },
        )
        .unwrap();
        let got = answers(&cv, &[1]);
        assert_eq!(got, vec![vec![2], vec![3]]);
        let got = answers(&cv, &[2]);
        assert!(got.is_empty());
    }

    /// A view the rewrite proved empty is the root bag with one check no
    /// request passes, whatever the recipe.
    #[test]
    fn always_empty_via_failed_guard() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
        db.add(Relation::from_pairs("G", vec![(5, 5)])).unwrap();
        let view = parse_adorned("Q(x, y) :- R(x, y), G(7, 7)", "bf").unwrap();
        let cv = CompressedView::build(&view, &db, Strategy::Direct).unwrap();
        assert!(
            cv.describe().starts_with("theorem 2: 0 bags"),
            "{}",
            cv.describe()
        );
        assert!(!cv.exists(&[1]).unwrap());
        assert!(answers(&cv, &[1]).is_empty());
        assert!(
            cv.answer_into(&[1, 2], &mut cqc_common::CountingSink::default())
                .is_err(),
            "access arity still validated"
        );
    }

    #[test]
    fn projections_rejected() {
        let db = triangle_db();
        let view = parse_adorned("Q(x, y) :- R(x, y), S(y, z)", "bf").unwrap();
        let err = CompressedView::build(&view, &db, Strategy::Direct);
        assert!(err.is_err());
    }

    #[test]
    fn describe_mentions_the_knobs() {
        let db = triangle_db();
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        let cv = CompressedView::build(
            &view,
            &db,
            Strategy::Tradeoff {
                tau: 4.0,
                weights: None,
            },
        )
        .unwrap();
        let d = cv.describe();
        assert!(d.contains("theorem 1"), "{d}");
        assert!(d.contains("τ = 4"), "{d}");
        assert!(d.contains("dictionary"), "{d}");
        // The §2.3 extremes are the two theorems at their fixed knobs.
        let d = CompressedView::build(&view, &db, Strategy::Materialize)
            .unwrap()
            .describe();
        assert!(d.contains("theorem 2: 1 bags (0 delay-tuned"), "{d}");
        let d = CompressedView::build(&view, &db, Strategy::Direct)
            .unwrap()
            .describe();
        assert!(d.contains("theorem 1: τ = inf"), "{d}");
        assert!(d.contains("tree 1 nodes"), "{d}");
        assert!(d.contains("dictionary 0 heavy pairs"), "{d}");
        let cv = CompressedView::build(&view, &db, decomposed(&view, 1.5)).unwrap();
        assert!(cv.describe().contains("theorem 2"), "{}", cv.describe());
    }

    #[test]
    fn non_finite_tau_is_a_config_error() {
        let db = triangle_db();
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        for weights in [None, Some(vec![0.5, 0.5, 0.5])] {
            let tradeoff = Strategy::Tradeoff {
                tau: f64::NAN,
                weights,
            };
            let err = CompressedView::build(&view, &db, tradeoff).unwrap_err();
            assert!(matches!(err, CqcError::Config(_)), "{err}");
        }
    }

    #[test]
    fn tradeoff_space_decreases_with_tau() {
        let db = triangle_db();
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        let mut last = usize::MAX;
        for tau in [1.0, 2.0, 4.0, 16.0] {
            let cv = CompressedView::build(
                &view,
                &db,
                Strategy::Tradeoff {
                    tau,
                    weights: Some(vec![0.5, 0.5, 0.5]),
                },
            )
            .unwrap();
            let s = cv.theorem1().expect("a Theorem 1 view").stats();
            assert!(s.tree_nodes + s.dict_entries <= last);
            last = s.tree_nodes + s.dict_entries;
        }
    }
}
