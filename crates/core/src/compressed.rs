//! The unified front door: one answer interface over the concrete
//! recipes.
//!
//! `CompressedView` wraps the two structures of the paper — Theorem 1 and
//! Theorem 2 — behind one `answer_into`/`exists`/space-accounting API,
//! after applying the Example 3 rewrite so that constants and repeated
//! variables are always accepted. Every recipe is one of those two
//! theorems at a fixed knob: the factorized representation of
//! Propositions 2/4 and §2.3's "materialize and index" extreme are
//! Theorem 2 at δ ≡ 0 (over a width-minimal decomposition and over
//! `{V_b} → {V}`), §2.3's "answer directly" extreme is Theorem 1 at
//! τ = ∞, and Proposition 1's all-bound view is Theorem 2 over the one-bag
//! decomposition `{V_b}`, whose root checks are its membership probes.
//! Choosing a recipe — budgets, LP covers, decomposition search — is the
//! planner's job (`cqc_engine::policy::select`), not this module's.

use crate::theorem1::Theorem1Structure;
use crate::theorem2::Theorem2Structure;
use cqc_common::error::{CqcError, Result};
use cqc_common::heap::HeapSize;
use cqc_common::value::Value;
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
/// requests.
#[derive(Debug)]
pub enum CompressedView {
    /// Theorem 1 structure.
    Tradeoff(Theorem1Structure),
    /// Theorem 2 structure (an all-bound view's included: Prop. 1).
    Decomposed(Theorem2Structure),
    /// A view proven empty during rewriting (a ground atom failed).
    AlwaysEmpty(AdornedView),
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
    /// The pool serves the strategies that index the base relations
    /// directly: Theorem 1 in all its forms, `direct` included. Theorem 2
    /// (`factorized` and `materialize` included) stays out of it: its bags
    /// are built over **bag-local databases** — fresh per-bag projections
    /// with per-node allocations — which an identity-keyed store can
    /// never share across bags or views; each bag's inner Theorem 1 build
    /// still pools its own cost-oracle and trie indexes privately. (A
    /// content-keyed projection cache across bags is a separate, future
    /// optimization.)
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
        if rewritten.always_empty {
            return Ok(CompressedView::AlwaysEmpty(rewritten.view));
        }
        let view = &rewritten.view;
        let db = &rewritten.database;
        view.query().require_natural_join()?;

        // An all-bound view is Prop. 1 under every recipe: the one-bag
        // decomposition `{V_b}`, whose root checks probe every relation.
        // Theorem 1 has no free variable to build a tree over.
        let strategy = if view.mu() == 0 {
            Strategy::Factorized
        } else {
            strategy
        };
        match strategy {
            Strategy::Factorized => Ok(CompressedView::Decomposed(
                Theorem2Structure::build_constant_delay(view, db)?,
            )),
            Strategy::Materialize => {
                let bound = view.bound_vars();
                let td = TreeDecomposition::new(
                    vec![bound, bound.union(view.free_vars())],
                    vec![None, Some(0)],
                )?;
                Ok(CompressedView::Decomposed(Theorem2Structure::build(
                    view,
                    db,
                    &td,
                    &[0.0, 0.0],
                )?))
            }
            Strategy::Direct => Ok(CompressedView::Tradeoff(Theorem1Structure::build_pooled(
                view,
                db,
                &vec![1.0; view.query().atoms.len()],
                f64::INFINITY,
                pool,
            )?)),
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
                Ok(CompressedView::Tradeoff(Theorem1Structure::build_pooled(
                    view, db, &weights, tau, pool,
                )?))
            }
            Strategy::DecomposedExplicit { td, delta } => Ok(CompressedView::Decomposed(
                Theorem2Structure::build(view, db, &td, &delta)?,
            )),
        }
    }

    /// A reusable enumerator for this representation: request scratch
    /// (traversal stacks, constraint vectors, joins, odometer cursors,
    /// probe keys) is created once and reused across
    /// [`ViewEnumerator::answer_into`] calls, so steady-state serving
    /// performs zero heap allocations per answer.
    pub fn enumerator(&self) -> ViewEnumerator<'_> {
        match self {
            CompressedView::Tradeoff(s) => ViewEnumerator::Tradeoff(s.enumerator()),
            CompressedView::Decomposed(s) => ViewEnumerator::Decomposed(s.enumerator()),
            CompressedView::AlwaysEmpty(v) => ViewEnumerator::AlwaysEmpty(v),
        }
    }

    /// Answers one access request: drives every answer into `sink` as a
    /// borrowed slice of free-variable values — the one way answers leave
    /// a representation. For request streams, hold a
    /// [`CompressedView::enumerator`] instead so the per-request scratch is
    /// reused too.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the view's pattern.
    pub fn answer_into(
        &self,
        bound_values: &[Value],
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        self.enumerator().answer_into(bound_values, sink)
    }

    /// `true` iff the request has at least one answer (first-answer probe;
    /// no answer tuple is materialized).
    pub fn exists(&self, bound_values: &[Value]) -> Result<bool> {
        let mut probe = cqc_common::ExistsSink::default();
        self.answer_into(bound_values, &mut probe)?;
        Ok(probe.found)
    }

    /// A human-readable description of the representation: strategy,
    /// tuning knobs and size accounting — the "EXPLAIN" of a compressed
    /// view.
    pub fn describe(&self) -> String {
        match self {
            CompressedView::Tradeoff(s) => {
                let st = s.stats();
                let per = |bytes: usize, n: usize| bytes as f64 / n.max(1) as f64;
                let (tries, grid) = st.base_index_widths;
                format!(
                    "theorem 1: τ = {:.2}, cover = {:?}, slack α = {:.2}; \
                     tree {} nodes, {} leaves (β {} B over {} levels; depth {}, \
                     {} B = {:.1} B/node), \
                     dictionary {} heavy pairs (values {} b, {} child bits; \
                     {} B = {:.1} B/entry), \
                     base indexes {} B (tries {} b, grid {} b; {} B distinct); {} heap bytes; \
                     build work: {} tree count probes, {} dictionary evaluations \
                     of {} candidates, {} probe joins; {} heavy pairs light by work \
                     ({} capped-run units)",
                    s.tau(),
                    s.weights()
                        .iter()
                        .map(|w| (w * 100.0).round() / 100.0)
                        .collect::<Vec<_>>(),
                    s.alpha(),
                    st.tree_nodes,
                    st.tree_leaves,
                    st.tree_beta_bytes,
                    s.tree().map_or(0, |t| t.beta_levels()),
                    st.tree_depth,
                    st.tree_bytes,
                    per(st.tree_bytes, st.tree_nodes),
                    st.dict_entries,
                    st.dict_value_width,
                    st.dict_child_bits,
                    st.dict_bytes,
                    per(st.dict_bytes, st.dict_entries),
                    st.base_index_bytes,
                    tries,
                    grid,
                    st.base_index_distinct_bytes,
                    st.heap_bytes,
                    st.tree_count_probes,
                    st.dict_evaluations,
                    st.dict_candidates,
                    st.dict_probes,
                    st.dict_light_by_work,
                    st.dict_capped_work
                )
            }
            CompressedView::Decomposed(s) => {
                let st = s.stats();
                let widths: String = s
                    .bag_reports()
                    .iter()
                    .filter(|r| r.kind == "materialized")
                    .map(|r| {
                        let w = r.widths;
                        format!(
                            "; node {}: keys {} b, offsets {} b, ranks {} b, values {} b",
                            r.node, w.keys, w.offsets, w.ranks, w.values
                        )
                    })
                    .collect();
                format!(
                    "theorem 2: {} bags ({} delay-tuned, max δ = {:.3}); {} materialized \
                     bag tuples ({} B = {:.1} B/tuple{}), {} dictionary entries, \
                     {} heap bytes{}",
                    st.bags,
                    st.tradeoff_bags,
                    st.max_delta,
                    st.materialized_tuples,
                    st.materialized_bytes,
                    st.materialized_bytes as f64 / st.materialized_tuples.max(1) as f64,
                    widths,
                    st.dict_entries,
                    st.heap_bytes,
                    if st.tradeoff_bags == 0 {
                        ", constant delay"
                    } else {
                        ""
                    }
                )
            }
            CompressedView::AlwaysEmpty(_) => {
                "always-empty: a ground atom failed during the Example 3 rewrite".into()
            }
        }
    }

    /// The shared handles of the base-relation indexes this
    /// representation holds: its join plan's tries, a handle per atom.
    /// Empty for the strategies that keep none or index bag-local
    /// projections instead.
    pub fn base_indexes(&self) -> Vec<&std::sync::Arc<cqc_storage::SortedIndex>> {
        match self {
            CompressedView::Tradeoff(s) => s.base_indexes().collect(),
            _ => Vec::new(),
        }
    }

    /// Heap bytes by part, `(tree, dictionary, rest)`: the delay-balanced
    /// trees and heavy-pair dictionaries (a Theorem 2 structure's summed
    /// over its delay-tuned bags), and everything else — base indexes,
    /// grids, materialized bags. The three sum to `heap_bytes()`.
    pub fn bytes_by_part(&self) -> (usize, usize, usize) {
        let (tree, dict) = match self {
            CompressedView::Tradeoff(s) => {
                let b = s.space_breakdown();
                (b.tree_bytes, b.dict_bytes)
            }
            CompressedView::Decomposed(t) => t
                .tradeoff_structures()
                .map(Theorem1Structure::space_breakdown)
                .fold((0, 0), |(t, d), b| (t + b.tree_bytes, d + b.dict_bytes)),
            CompressedView::AlwaysEmpty(_) => (0, 0),
        };
        (tree, dict, self.heap_bytes() - tree - dict)
    }

    /// A short name of the structure in use (for reports).
    pub fn strategy_name(&self) -> &'static str {
        match self {
            CompressedView::Tradeoff(_) => "theorem-1",
            CompressedView::Decomposed(_) => "theorem-2",
            CompressedView::AlwaysEmpty(_) => "always-empty",
        }
    }
}

impl HeapSize for CompressedView {
    fn heap_bytes(&self) -> usize {
        match self {
            CompressedView::Tradeoff(s) => s.heap_bytes(),
            CompressedView::Decomposed(s) => s.heap_bytes(),
            CompressedView::AlwaysEmpty(_) => 0,
        }
    }
}

/// Unified reusable enumerator (see [`CompressedView::enumerator`]): each
/// variant is the structure's own cursor, or a borrow of the view where
/// answering needs no scratch.
///
/// Theorem 1's cursor is the large variant and stays inline: one
/// enumerator serves a whole request stream from the caller's stack, and
/// a box would cost an allocation per enumerator.
#[allow(clippy::large_enum_variant)]
pub enum ViewEnumerator<'a> {
    /// Algorithm 2 with reusable enumeration scratch.
    Tradeoff(crate::theorem1::Theorem1Iter<'a>),
    /// Algorithm 5 with reusable odometer scratch.
    Decomposed(crate::theorem2::Theorem2Iter<'a>),
    /// A view proven empty during rewriting (validates access arity only).
    AlwaysEmpty(&'a AdornedView),
}

impl ViewEnumerator<'_> {
    /// Answers one request into `sink`; answers arrive as borrowed slices
    /// in the representation's enumeration order. Reuses all scratch from
    /// previous calls.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the view's pattern.
    pub fn answer_into(
        &mut self,
        bound_values: &[Value],
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        match self {
            ViewEnumerator::Tradeoff(it) => it.answer_into(bound_values, sink),
            ViewEnumerator::Decomposed(it) => it.answer_into(bound_values, sink),
            ViewEnumerator::AlwaysEmpty(v) => v.check_access(bound_values),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cqc_common::value::{lex_cmp, Tuple};
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
            assert!(
                matches!(&cv, CompressedView::Decomposed(s) if s.stats().bags == 0),
                "{strat:?}: {}",
                cv.describe()
            );
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

    #[test]
    fn always_empty_via_failed_guard() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
        db.add(Relation::from_pairs("G", vec![(5, 5)])).unwrap();
        let view = parse_adorned("Q(x, y) :- R(x, y), G(7, 7)", "bf").unwrap();
        let cv = CompressedView::build(&view, &db, Strategy::Direct).unwrap();
        assert_eq!(cv.strategy_name(), "always-empty");
        assert!(!cv.exists(&[1]).unwrap());
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
            if let CompressedView::Tradeoff(t) = &cv {
                let s = t.stats();
                assert!(s.tree_nodes + s.dict_entries <= last);
                last = s.tree_nodes + s.dict_entries;
            } else {
                panic!("expected tradeoff structure");
            }
        }
    }
}
