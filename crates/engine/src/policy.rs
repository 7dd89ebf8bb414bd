//! Strategy selection: the planner.
//!
//! Given an adorned view and a database, [`select`] resolves a [`Policy`]
//! into a concrete [`Strategy`] — a recipe with every knob given, which
//! `cqc_core` only builds — by consulting the width machinery
//! (`cqc_decomp::width` via the decomposition search), the §6 LP optimizers
//! (`cqc_lp::fractional`) and the concrete `T(·)` cost oracle
//! (`cqc_core::cost`). The two budget forms resolve directly:
//! [`Policy::TradeoffBudget`] to MinDelayCover's cover and τ,
//! [`Policy::Decomposed`] to the decomposition of least δ-height. An
//! [`Policy::Auto`] policy chooses:
//!
//! * all head variables bound → Proposition 1: Theorem 2 over the one-bag
//!   decomposition `{V_b}`, whose root checks are its membership probes;
//! * the connex fractional hypertree width fits the space budget → the
//!   factorized representation (Props. 2/4): constant delay, done;
//! * otherwise the two delay-tuned candidates are compared on their
//!   *predicted delay exponents* — MinDelayCover's `log τ / log |D|` for
//!   Theorem 1 against the δ-height of the best budgeted decomposition for
//!   Theorem 2 — and the smaller one wins, with the Theorem 1 candidate's
//!   concrete dictionary load `(T(I)/τ)^α` (Prop. 7, priced by the cost
//!   oracle) used as a sanity veto when the asymptotic prediction hides a
//!   blowup on the actual instance.

use cqc_common::error::Result;
use cqc_core::cost::CostEstimator;
use cqc_core::fbox::FInterval;
use cqc_core::Strategy;
use cqc_decomp::{search_connex, Objective};
use cqc_lp::fractional::min_delay_cover;
use cqc_query::rewrite::rewrite_view;
use cqc_query::AdornedView;
use cqc_storage::{Database, IndexPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of selection solves (LP cover, width search,
/// cost-oracle veto — whichever the policy needs). Bumped once per
/// [`select`] call that resolves an auto or budget policy; `Fixed`
/// passthroughs don't count. The sharded engine's plan-once registration
/// is gated on this in tests: for `S` shards one register must add
/// exactly 1, not `S`.
static SELECTION_SOLVES: AtomicU64 = AtomicU64::new(0);

/// Reads the cumulative auto-selection solve counter.
pub fn selection_solves() -> u64 {
    SELECTION_SOLVES.load(Ordering::Relaxed)
}

/// How the engine should compress a registered view.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Let the engine pick, optionally under a space budget exponent
    /// (`|D|^budget`). Without a budget the engine targets linear space.
    Auto {
        /// Optional space budget as an exponent of `|D|`.
        space_budget_exp: Option<f64>,
    },
    /// Theorem 1 under a space budget: MinDelayCover (§6, Prop. 11) picks
    /// the cover and the smallest τ whose structure fits in
    /// `|D|^{space_budget_exp}`.
    TradeoffBudget {
        /// Space budget as an exponent of `|D|`.
        space_budget_exp: f64,
    },
    /// Theorem 2 over the decomposition of least δ-height under a space
    /// budget, its per-bag delays optimized (§6).
    Decomposed {
        /// Space budget as an exponent of `|D|`.
        space_budget_exp: f64,
    },
    /// Use exactly this strategy.
    Fixed(Strategy),
}

impl Default for Policy {
    fn default() -> Policy {
        Policy::Auto {
            space_budget_exp: None,
        }
    }
}

impl Policy {
    /// Parses a compact strategy token — the grammar the `cqe` CLI and the
    /// wire protocol share, so a policy is expressible as a short string on
    /// both ends: `auto`, `auto:<budget>`, `materialize`, `direct`,
    /// `factorized`, `tau:<t>`, `budget:<b>`, `decomposed:<b>`.
    ///
    /// # Errors
    ///
    /// [`cqc_common::CqcError::Config`] on an unknown token or a bad
    /// numeric parameter — a non-finite one (`NaN`, `inf`) included:
    /// `direct` is the spelling of τ = ∞.
    pub fn parse(token: &str) -> Result<Policy> {
        use cqc_common::CqcError;
        let (kind, param) = match token.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (token, None),
        };
        let num = |p: Option<&str>| -> Result<f64> {
            p.ok_or_else(|| {
                CqcError::Config(format!("strategy `{kind}` needs a numeric parameter"))
            })?
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| {
                CqcError::Config(format!(
                    "bad numeric parameter in `{token}` (a finite number; `direct` is τ = ∞)"
                ))
            })
        };
        match kind {
            "auto" => Ok(Policy::Auto {
                space_budget_exp: param.map(|p| num(Some(p))).transpose()?,
            }),
            "materialize" => Ok(Policy::Fixed(Strategy::Materialize)),
            "direct" => Ok(Policy::Fixed(Strategy::Direct)),
            "factorized" => Ok(Policy::Fixed(Strategy::Factorized)),
            "tau" => Ok(Policy::Fixed(Strategy::Tradeoff {
                tau: num(param)?,
                weights: None,
            })),
            "budget" => Ok(Policy::TradeoffBudget {
                space_budget_exp: num(param)?,
            }),
            "decomposed" => Ok(Policy::Decomposed {
                space_budget_exp: num(param)?,
            }),
            other => Err(CqcError::Config(format!(
                "unknown strategy `{other}` (try: auto, auto:<b>, materialize, direct, \
                 factorized, tau:<t>, budget:<b>, decomposed:<b>)"
            ))),
        }
    }
}

/// The outcome of strategy selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The concrete strategy to build with.
    pub strategy: Strategy,
    /// Canonical tag for catalog keying (same view + same tag ⇒ shareable).
    pub tag: String,
    /// Human-readable account of why this strategy was chosen.
    pub reason: String,
}

/// A canonical, deterministic tag for a strategy (used in catalog keys and
/// error messages). Numeric knobs use `f64`'s shortest-roundtrip display,
/// so strategies differing in any parameter — however slightly — never
/// collide into one catalog key.
pub fn strategy_tag(strategy: &Strategy) -> String {
    let nums = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    match strategy {
        Strategy::Materialize => "materialize".into(),
        Strategy::Direct => "direct".into(),
        Strategy::Tradeoff { tau, weights } => match weights {
            None => format!("theorem-1 τ={tau}"),
            Some(w) => format!("theorem-1 τ={tau} u=[{}]", nums(w)),
        },
        Strategy::DecomposedExplicit { td, delta } => {
            format!("theorem-2 explicit bags={} δ=[{}]", td.len(), nums(delta))
        }
        Strategy::Factorized => "factorized".into(),
    }
}

const EPS: f64 = 1e-6;

/// Resolves `policy` for `view` over `db`.
///
/// Auto and budget policies are resolved **to a concrete plan**: the
/// winning LP cover (with its τ) or decomposition (with its δ assignment)
/// is embedded in the returned strategy, so building the representation —
/// on this engine, or on every shard of a sharded engine — never re-runs
/// the §6 programs. This is the plan-once contract: one `select` call per
/// registration, however many shards build from it.
///
/// # Errors
///
/// Propagates schema/LP/decomposition failures from the consulted oracles.
pub fn select(view: &AdornedView, db: &Database, policy: &Policy) -> Result<Selection> {
    select_pooled(view, db, policy, &IndexPool::new())
}

/// [`select`] drawing the veto cost oracle's indexes from `pool`. The
/// engine passes its index store, the same one the subsequent build draws
/// from, which — because the Example 3 rewrite shares untouched relations
/// by `Arc` — reuses those indexes instead of re-sorting them.
///
/// # Errors
///
/// Same failure modes as [`select`].
pub fn select_pooled(
    view: &AdornedView,
    db: &Database,
    policy: &Policy,
    pool: &IndexPool,
) -> Result<Selection> {
    // A budget form keeps its tag whatever it resolves to: tags are
    // catalog keys, and the budget tag is the one an `auto:<b>` selection
    // of the same theorem carries, so the two share an entry.
    let budget_tag = match policy {
        Policy::Fixed(s) => {
            return Ok(Selection {
                strategy: s.clone(),
                tag: strategy_tag(s),
                reason: "fixed by caller".into(),
            });
        }
        Policy::Auto { .. } => None,
        Policy::TradeoffBudget {
            space_budget_exp: b,
        } => Some(format!("theorem-1 budget={b}")),
        Policy::Decomposed {
            space_budget_exp: b,
        } => Some(format!("theorem-2 budget={b}")),
    };
    SELECTION_SOLVES.fetch_add(1, Ordering::Relaxed);
    // Nothing to choose: every recipe builds the same representation of
    // an all-bound or always-empty view, so the selection stores the
    // factorized one.
    let no_choice = |tag: &str, reason: &str| {
        Ok(Selection {
            strategy: Strategy::Factorized,
            tag: budget_tag.clone().unwrap_or_else(|| tag.into()),
            reason: reason.into(),
        })
    };

    if view.mu() == 0 {
        // Prop. 1: membership probes on the relations themselves; no knob
        // beats that for boolean access patterns.
        return no_choice(
            "bound-only",
            "all head variables bound → Prop. 1: theorem 2 over the root bag {V_b}, \
             one membership probe per relation (linear space, O(1) per probe)",
        );
    }

    // Analyze the Example 3 rewrite of the view, exactly as
    // `CompressedView::build` will: constants and repeated variables are
    // eliminated, so Auto accepts the same view language as every fixed
    // strategy. The chosen strategy is applied to the *original* view
    // (build re-runs the same deterministic rewrite).
    let rewritten = rewrite_view(view, db)?;
    if rewritten.always_empty {
        return no_choice(
            "always-empty",
            "a ground atom fails on this database → the view is empty regardless of strategy",
        );
    }
    let view = &rewritten.view;
    let db = &rewritten.database;
    if view.mu() == 0 {
        // The rewrite can absorb free variables (e.g. one repeated with a
        // bound variable): re-check the Prop. 1 case post-rewrite.
        return no_choice(
            "bound-only",
            "all head variables bound after the Example 3 rewrite → Prop. 1: theorem 2 \
             over the root bag {V_b}",
        );
    }
    let query = view.query();
    query.require_natural_join()?;
    query.check_schema(db)?;
    let h = query.hypergraph();
    let n = db.size().max(2) as f64;
    let log_sizes: Vec<f64> = query
        .atoms
        .iter()
        .map(|a| {
            db.require(&a.relation)
                .map(|r| (r.len().max(2) as f64).ln())
        })
        .collect::<Result<_>>()?;

    let budget = match *policy {
        Policy::Auto { space_budget_exp } => space_budget_exp,
        Policy::TradeoffBudget { space_budget_exp } => {
            let log_budget = space_budget_exp * n.ln();
            let choice = min_delay_cover(&h, view.free_vars(), &log_sizes, log_budget)?;
            let t1_exp = (choice.log_tau / n.ln()).max(0.0);
            return Ok(Selection {
                strategy: concrete_tradeoff(&choice),
                tag: budget_tag.expect("a budget form has its tag"),
                reason: format!(
                    "MinDelayCover delay |D|^{t1_exp:.2} under budget \
                     |D|^{space_budget_exp:.2} → theorem-1 (cover solved once at selection)"
                ),
            });
        }
        Policy::Decomposed { space_budget_exp } => {
            let decomp = search_connex(
                &h,
                view.bound_vars(),
                Objective::MinimizeHeightUnderBudget {
                    budget_exp: space_budget_exp,
                },
            )?;
            return Ok(Selection {
                strategy: Strategy::DecomposedExplicit {
                    td: decomp.td,
                    delta: decomp.delta,
                },
                tag: budget_tag.expect("a budget form has its tag"),
                reason: format!(
                    "least δ-height {:.2} under budget |D|^{space_budget_exp:.2} → theorem-2 \
                     (decomposition solved once at selection)",
                    decomp.score
                ),
            });
        }
        Policy::Fixed(_) => unreachable!("a fixed strategy is returned before the solve"),
    };

    // Width consultation: the best connex decomposition ignoring delay.
    let width_search = search_connex(&h, view.bound_vars(), Objective::MinimizeWidth)?;
    let fhw = width_search.score;

    // The space target: the caller's budget, or linear space — the paper's
    // headline regime — when none is given.
    let (target, target_note) = match budget {
        Some(b) => (b, format!("budget |D|^{b:.2}")),
        None => (1.0, "the linear-space target (no budget given)".into()),
    };

    if fhw <= target + EPS {
        // Constant delay fits the budget: nothing can beat it.
        return Ok(Selection {
            strategy: Strategy::Factorized,
            tag: "factorized".into(),
            reason: format!(
                "connex fhw(H|V_b) = {fhw:.2} fits {target_note} → factorized \
                 representation (constant delay)"
            ),
        });
    }

    // Delay-tuned candidates under the budget.
    // Theorem 1: MinDelayCover picks the cover and the smallest τ that fits.
    let t1 = min_delay_cover(&h, view.free_vars(), &log_sizes, target * n.ln());
    // Theorem 2: best decomposition minimizing δ-height under the budget.
    let t2 = search_connex(
        &h,
        view.bound_vars(),
        Objective::MinimizeHeightUnderBudget { budget_exp: target },
    );

    match (t1, t2) {
        (Ok(choice), Ok(decomp)) => {
            let t1_exp = (choice.log_tau / n.ln()).max(0.0);
            let t2_exp = decomp.score.max(0.0);
            // Concrete-instance veto for the Theorem 1 candidate: per
            // Prop. 7 its dictionary stores at most (T(I)/τ)^α entries.
            // The LP reasons about exponents only; the cost oracle prices
            // the actual instance.
            let alpha = choice.alpha.max(1.0);
            let est = CostEstimator::build_pooled(view, db, &choice.weights, alpha, pool)
                .ok()
                .and_then(|cost| {
                    let sizes = cost.sizes();
                    FInterval::full(&sizes).map(|full| {
                        let t_root = cost.t_interval(&full, &sizes);
                        (t_root / choice.log_tau.exp().max(1.0))
                            .max(0.0)
                            .powf(alpha)
                    })
                });
            let t1_blowup = est.is_some_and(|entries| entries > 8.0 * n.powf(target));
            if t1_exp <= t2_exp + EPS && !t1_blowup {
                let est_note = est
                    .map(|e| format!(", ≈{e:.0} dictionary entries predicted"))
                    .unwrap_or_default();
                Ok(Selection {
                    strategy: concrete_tradeoff(&choice),
                    tag: format!("theorem-1 budget={target}"),
                    reason: format!(
                        "fhw(H|V_b) = {fhw:.2} exceeds {target_note}; MinDelayCover delay \
                         |D|^{t1_exp:.2} ≤ δ-height {t2_exp:.2} → theorem-1{est_note} \
                         (cover solved once at selection)"
                    ),
                })
            } else {
                let why = if t1_blowup {
                    "theorem-1 dictionary load vetoed by cost oracle"
                } else {
                    "δ-height wins"
                };
                Ok(Selection {
                    strategy: Strategy::DecomposedExplicit {
                        td: decomp.td,
                        delta: decomp.delta,
                    },
                    tag: format!("theorem-2 budget={target}"),
                    reason: format!(
                        "fhw(H|V_b) = {fhw:.2} exceeds {target_note}; δ-height {t2_exp:.2} vs \
                         theorem-1 delay |D|^{t1_exp:.2} → theorem-2 ({why}; decomposition \
                         solved once at selection)"
                    ),
                })
            }
        }
        (Ok(choice), Err(_)) => {
            let t1_exp = (choice.log_tau / n.ln()).max(0.0);
            Ok(Selection {
                strategy: concrete_tradeoff(&choice),
                tag: format!("theorem-1 budget={target}"),
                reason: format!(
                    "no budgeted decomposition found; MinDelayCover delay |D|^{t1_exp:.2} \
                     under {target_note} → theorem-1 (cover solved once at selection)"
                ),
            })
        }
        (Err(_), Ok(decomp)) => {
            let reason = format!(
                "MinDelayCover infeasible; δ-height {:.2} under {target_note} → theorem-2 \
                 (decomposition solved once at selection)",
                decomp.score
            );
            Ok(Selection {
                strategy: Strategy::DecomposedExplicit {
                    td: decomp.td,
                    delta: decomp.delta,
                },
                tag: format!("theorem-2 budget={target}"),
                reason,
            })
        }
        (Err(e), Err(_)) => Err(e),
    }
}

/// The winning MinDelayCover choice as an explicit Theorem 1 strategy,
/// solved once here and carried by the selection instead of re-solved per
/// build (and, for a sharded engine, per shard). The selection keeps the
/// *budget-form* tag: tags are
/// catalog keys, and the concrete weights are ordered by the view's atom
/// order, which aliased registrations permute — the canonical budget tag
/// is what lets aliases keep sharing one entry.
fn concrete_tradeoff(choice: &cqc_lp::fractional::CoverChoice) -> Strategy {
    Strategy::Tradeoff {
        tau: choice.log_tau.exp().max(1.0),
        weights: Some(choice.weights.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_storage::Relation;
    use cqc_workload::queries;

    fn triangle_db(rows: usize) -> Database {
        let mut db = Database::new();
        let mut rng = cqc_workload::rng(13);
        for name in ["R", "S", "T"] {
            db.add(cqc_workload::uniform_relation(
                &mut rng,
                name,
                2,
                rows,
                (rows / 4).max(4) as u64,
            ))
            .unwrap();
        }
        db
    }

    /// An all-bound view has nothing to choose: every policy but a fixed
    /// one stores the factorized recipe (Theorem 2 over the root bag), and
    /// a budget form keeps its tag.
    #[test]
    fn all_bound_selects_membership() {
        let db = triangle_db(60);
        let view = queries::triangle("bbb").unwrap();
        for (token, tag) in [
            ("auto", "bound-only"),
            ("auto:1.5", "bound-only"),
            ("budget:1.2", "theorem-1 budget=1.2"),
            ("decomposed:1.5", "theorem-2 budget=1.5"),
        ] {
            let sel = select(&view, &db, &Policy::parse(token).unwrap()).unwrap();
            assert_eq!(sel.tag, tag, "{token}");
            assert!(matches!(sel.strategy, Strategy::Factorized), "{token}");
        }
        let sel = select(&view, &db, &Policy::default()).unwrap();
        assert!(
            sel.reason.contains("theorem 2 over the root bag"),
            "{}",
            sel.reason
        );
        let cv = cqc_core::CompressedView::build(&view, &db, sel.strategy).unwrap();
        assert!(
            cv.describe().starts_with("theorem 2: 0 bags"),
            "{}",
            cv.describe()
        );
    }

    #[test]
    fn acyclic_view_selects_factorized() {
        // Full enumeration of a path query: fhw = 1 ≤ the linear-space
        // target. (With both endpoints *bound* the connex width jumps to 2
        // — the paper's Example 10 — and selection goes delay-tuned; see
        // `bound_endpoints_path_goes_delay_tuned`.)
        let mut db = Database::new();
        db.add(Relation::from_pairs("R1", vec![(1, 2), (2, 3)]))
            .unwrap();
        db.add(Relation::from_pairs("R2", vec![(2, 3), (3, 4)]))
            .unwrap();
        let view = queries::path(2, "fff").unwrap();
        let sel = select(&view, &db, &Policy::default()).unwrap();
        assert_eq!(sel.tag, "factorized", "{}", sel.reason);
        assert!(sel.reason.contains("fhw"), "{}", sel.reason);
    }

    #[test]
    fn bound_endpoints_path_goes_delay_tuned() {
        // Example 10: P_2^{bfb} has connex fhw 2 > linear space, so auto
        // selection must reach for a delay-tuned structure.
        let mut db = Database::new();
        let mut rng = cqc_workload::rng(29);
        db.add(cqc_workload::uniform_relation(&mut rng, "R1", 2, 80, 20))
            .unwrap();
        db.add(cqc_workload::uniform_relation(&mut rng, "R2", 2, 80, 20))
            .unwrap();
        let view = queries::path(2, "bfb").unwrap();
        let sel = select(&view, &db, &Policy::default()).unwrap();
        assert!(
            sel.tag.starts_with("theorem-"),
            "{} ({})",
            sel.tag,
            sel.reason
        );
    }

    #[test]
    fn generous_budget_admits_factorized_triangle() {
        let db = triangle_db(80);
        let view = queries::triangle("bfb").unwrap();
        let sel = select(
            &view,
            &db,
            &Policy::Auto {
                space_budget_exp: Some(2.0),
            },
        )
        .unwrap();
        // fhw(H | {x, z}) of the triangle is 1 ≤ 2: factorized fits.
        assert_eq!(sel.tag, "factorized", "{}", sel.reason);
    }

    #[test]
    fn tight_budget_on_cyclic_view_goes_delay_tuned() {
        let db = triangle_db(120);
        let view = queries::triangle("fff").unwrap();
        let sel = select(
            &view,
            &db,
            &Policy::Auto {
                space_budget_exp: Some(1.05),
            },
        )
        .unwrap();
        assert!(
            sel.tag.starts_with("theorem-1") || sel.tag.starts_with("theorem-2"),
            "{} ({})",
            sel.tag,
            sel.reason
        );
        // Whatever was chosen must build and answer correctly.
        let cv = cqc_core::CompressedView::build(&view, &db, sel.strategy.clone()).unwrap();
        let mut block = cqc_common::AnswerBlock::new();
        cv.answer_into(&[], &mut block).unwrap();
        let expect = cqc_join::naive::evaluate_view(&view, &db, &[]).unwrap();
        // Sorted (Theorem 2 promises pre-order), never deduplicated.
        let mut got = block.to_tuples();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn fixed_policy_passes_through() {
        let db = triangle_db(30);
        let view = queries::triangle("bfb").unwrap();
        let sel = select(
            &view,
            &db,
            &Policy::Fixed(Strategy::Tradeoff {
                tau: 2.0,
                weights: None,
            }),
        )
        .unwrap();
        assert_eq!(sel.tag, "theorem-1 τ=2");
        assert_eq!(sel.reason, "fixed by caller");
    }

    #[test]
    fn policy_tokens_parse() {
        assert!(matches!(
            Policy::parse("auto").unwrap(),
            Policy::Auto {
                space_budget_exp: None
            }
        ));
        assert!(matches!(
            Policy::parse("auto:1.5").unwrap(),
            Policy::Auto {
                space_budget_exp: Some(b)
            } if (b - 1.5).abs() < 1e-12
        ));
        assert!(matches!(
            Policy::parse("materialize").unwrap(),
            Policy::Fixed(Strategy::Materialize)
        ));
        assert!(matches!(
            Policy::parse("tau:2").unwrap(),
            Policy::Fixed(Strategy::Tradeoff { tau, weights: None }) if (tau - 2.0).abs() < 1e-12
        ));
        assert!(matches!(
            Policy::parse("decomposed:1.25").unwrap(),
            Policy::Decomposed { space_budget_exp } if (space_budget_exp - 1.25).abs() < 1e-12
        ));
        assert!(matches!(
            Policy::parse("budget:1.5").unwrap(),
            Policy::TradeoffBudget { space_budget_exp } if (space_budget_exp - 1.5).abs() < 1e-12
        ));
        for bad in [
            "tau",
            "tau:x",
            "wat",
            "budget",
            "tau:NaN",
            "tau:inf",
            "auto:NaN",
            "budget:NaN",
            "decomposed:-inf",
        ] {
            let err = Policy::parse(bad).unwrap_err();
            assert!(
                matches!(err, cqc_common::CqcError::Config(_)),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn tags_are_canonical() {
        assert_eq!(strategy_tag(&Strategy::Factorized), "factorized");
        let tau = Strategy::Tradeoff {
            tau: 2.5,
            weights: Some(vec![0.5, 1.0]),
        };
        assert_eq!(strategy_tag(&tau), "theorem-1 τ=2.5 u=[0.5,1]");
        // A budget form is tagged by its budget, not by what it resolves to.
        let db = triangle_db(60);
        let view = queries::triangle("bfb").unwrap();
        for (token, tag) in [
            ("budget:1.5", "theorem-1 budget=1.5"),
            ("decomposed:1.5", "theorem-2 budget=1.5"),
        ] {
            let sel = select(&view, &db, &Policy::parse(token).unwrap()).unwrap();
            assert_eq!(sel.tag, tag, "{token}");
        }
    }

    /// `budget:<b>` is MinDelayCover solved at selection: the cover and
    /// the smallest τ whose structure fits in `|D|^b`.
    #[test]
    fn tradeoff_budget_strategy_picks_lp_optimum() {
        // A database large enough that Π|R_F|^{u_F} clears the linear
        // budget (the asymptotic regime the §6 program reasons about).
        let mut db = Database::new();
        let mut rng = cqc_workload::rng(71);
        for name in ["R", "S", "T"] {
            db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 150, 25))
                .unwrap();
        }
        let view = queries::triangle("bfb").unwrap();
        // τ must shrink monotonically as the budget grows, reaching ≈ 1.
        let mut taus = Vec::new();
        for budget in [1.0, 1.5, 3.0] {
            let policy = Policy::TradeoffBudget {
                space_budget_exp: budget,
            };
            let sel = select(&view, &db, &policy).unwrap();
            let Strategy::Tradeoff {
                tau,
                weights: Some(_),
            } = sel.strategy
            else {
                panic!("expected a concrete theorem-1 plan, got {:?}", sel.strategy)
            };
            taus.push(tau);
            let cv = cqc_core::CompressedView::build(&view, &db, sel.strategy).unwrap();
            let t = cv.theorem1().expect("expected theorem 1");
            assert_eq!(t.tau(), tau, "the build takes the selection's τ");
            // Correctness at every budget.
            for x in 0..8u64 {
                let bound = [x, (x + 3) % 25];
                let expect = cqc_join::naive::evaluate_view(&view, &db, &bound).unwrap();
                let mut block = cqc_common::AnswerBlock::new();
                cv.answer_into(&bound, &mut block).unwrap();
                assert_eq!(block.to_tuples(), expect, "budget {budget}");
            }
        }
        assert!(
            taus[0] >= taus[1] - 1e-9 && taus[1] >= taus[2] - 1e-9,
            "{taus:?}"
        );
        assert!(taus[0] > 1.5, "tight budget needs real delay: {taus:?}");
        assert!(taus[2] <= 1.5, "generous budget ⇒ τ ≈ 1: {taus:?}");
    }
}
