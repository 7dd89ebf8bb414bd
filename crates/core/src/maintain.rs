//! Delta maintenance of compressed representations.
//!
//! The paper builds its structures over a static database (§4); this module
//! extends every strategy to survive batched inserts *and deletes* without
//! a full rebuild, in the spirit of factorised-representation maintenance
//! (Olteanu & Závodný). [`cqc_storage::Delta`] keeps its insert and remove
//! sets disjoint (last-write-wins), so the two directions commute and can
//! be repaired independently.
//!
//! **Theorem 1** gets genuinely incremental maintenance. The observation
//! that makes it sound is locality: a tuple only changes the restricted
//! join `Q[v_b] ⋈ I(w)` of the (valuation, interval) pairs that agree with
//! it on the positions it pins — its *slab*. Per direction:
//!
//! * under **inserts**, costs only grow: heavy pairs stay heavy and `1`
//!   bits stay `1`; a light pair that turns heavy keeps being evaluated
//!   directly (the `⊥` branch of Algorithm 2 runs on the refreshed base
//!   indexes and is always correct, only its delay degrades with the
//!   delta); so does a Def.-3-heavy pair the build left `⊥` because its
//!   run found an answer within 16 · τ work units, once the insert makes
//!   that run longer; and so does every pair below a stored `0` that an
//!   insert flips to `1` — the dictionary stores nothing below a `0`, so
//!   its heavy descendants read `⊥`, and the delay of each is bounded by
//!   its interval's build-time weight rather than by τ until the view is
//!   rebuilt; the single hazard is a stored `0` bit whose restricted join
//!   became non-empty — a stale "provably empty" certificate would
//!   *suppress* answers. Affected `0` bits are re-probed and flipped to
//!   `1` where the insert created answers.
//! * under **removes**, the hazards mirror: a stored `1` bit whose
//!   restricted join drained is delay-only (the interval simply yields no
//!   answers when enumerated — Point frames re-check against the refreshed
//!   indexes), but leaving it would erode the delay bound, so affected `1`
//!   bits are re-probed and flipped back to `0` where the remove emptied
//!   the interval. A remove that makes a free variable's active domain
//!   value vanish entirely shifts the rank-space grid and forces a rebuild
//!   (caught by the grid equality check, exactly like domain growth).
//!
//! Maintenance therefore (1) trades the linear-size base indexes in at the
//! [`IndexPool`] for their post-delta successors — merged by one linear
//! splice per index (`SortedIndex::splice`), the `Õ(|D|)` term, unavoidable
//! because answers are enumerated from them, but paid once per delta by
//! the engine's store and not once per view — (2) keeps the
//! delay-balanced tree's shape, and (3) re-probes exactly the dictionary
//! bits on tree nodes whose f-interval intersects a delta tuple's slab —
//! the affected root-to-leaf paths. Everything else is untouched, so the
//! work beyond the linear refresh is bounded by the delta, not by the
//! structure.
//!
//! The `direct` recipe is Theorem 1 at τ = ∞ and maintains by the same
//! rule: a one-leaf tree has no bit to re-probe, so a delta costs the index
//! refresh, and a changed active domain is a rebuild.
//!
//! **Every other structure** has a cheaper-than-rebuild maintain path of
//! its own:
//!
//! * the Theorem 2 structure (the factorized d-tree and the `materialize`
//!   recipe's one bag are its δ ≡ 0 cases) re-derives only the bags touched
//!   by the delta plus their ancestors, re-runs the semijoin fixup
//!   restricted to that set and re-takes its root checks from the
//!   post-delta database
//!   ([`crate::theorem2::Theorem2Structure::maintained`]) — for an
//!   all-bound view (Prop. 1, no bag below the root) that is all it does;
//! * always-empty views re-derive their ground guards.
//!
//! When the preconditions fail — the Theorem 1 grid shifted, or the view
//! needs the Example 3 rewrite (the delta would have to be rewritten too)
//! — the caller is told to rebuild instead. The engine additionally
//! rebuilds, without calling in here, when [`touched_tuples`] exceeds a
//! fixed fraction of `|D|`.

use crate::compressed::CompressedView;
use crate::fbox::{box_decomposition_ranks, BoxList, CanonicalBox};
use crate::theorem1::Theorem1Structure;
use cqc_common::error::Result;
use cqc_common::value::Value;
use cqc_join::plan::ViewPlan;
use cqc_query::rewrite::rewrite_view;
use cqc_query::AdornedView;
use cqc_storage::{Database, Delta, IndexPool};

/// What happened during a maintenance attempt.
#[derive(Debug)]
pub enum MaintainOutcome {
    /// The representation was updated in place of a rebuild.
    Maintained {
        /// The maintained representation, valid for the post-delta database.
        view: Box<CompressedView>,
        /// Work accounting for the maintenance pass.
        report: MaintainReport,
    },
    /// The delta does not touch any relation of the view: the existing
    /// representation is already valid for the new database.
    Unaffected,
    /// The structure cannot absorb this delta; build a fresh representation.
    NeedsRebuild {
        /// Why maintenance was refused.
        reason: String,
    },
}

/// Work performed by a successful maintenance pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainReport {
    /// Tuples in the delta (inserts and removes) that touch the view's
    /// relations.
    pub delta_tuples: usize,
    /// Theorem 1: tree nodes whose interval intersects a delta tuple's
    /// slab. Theorem 2: bags re-derived from the base relations.
    pub affected_nodes: usize,
    /// Dictionary bits re-probed on affected nodes (`0` bits against
    /// inserts, `1` bits against removes).
    pub reprobed_entries: usize,
    /// `0` bits flipped to `1` (inserts created answers in the interval).
    pub flipped_bits: usize,
    /// `1` bits flipped back to `0` (removes emptied the interval).
    pub cleared_bits: usize,
}

/// An inserted tuple's footprint on the free-variable grid and the bound
/// valuation space: positions it pins, in rank space (free) and value space
/// (bound). A tree node can only gain answers from this tuple if its
/// interval contains a point agreeing with `free_fix`; a dictionary entry
/// can only be invalidated by it if its valuation agrees with `bound_fix`.
struct Slab {
    free_fix: Vec<(usize, usize)>,
    bound_fix: Vec<(usize, Value)>,
}

impl Slab {
    fn hits_box(&self, b: &CanonicalBox) -> bool {
        if b.is_empty() {
            return false;
        }
        let p = b.range_pos();
        self.free_fix.iter().all(|&(pos, rank)| {
            if pos < p {
                b.prefix[pos] == rank
            } else if pos == p {
                b.range.0 <= rank && rank <= b.range.1
            } else {
                true
            }
        })
    }

    fn matches_valuation(&self, vb: &[Value]) -> bool {
        self.bound_fix.iter().all(|&(pos, v)| vb[pos] == v)
    }
}

impl CompressedView {
    /// Attempts to maintain this representation across `delta` (inserts
    /// and removes; the sets are disjoint by [`Delta`]'s last-write-wins
    /// canonicalization), which has already been applied to `db`.
    /// `original` is the view as registered (pre-rewrite); `self` must have
    /// been built from the pre-delta database.
    ///
    /// Every strategy has a maintain path (see the module docs for what
    /// each one repairs); precondition failures — a shifted Theorem 1
    /// grid, a view needing the Example 3 rewrite, an index that cannot be
    /// reconciled — report [`MaintainOutcome::NeedsRebuild`]. A delta that
    /// does not touch the view's relations is
    /// [`MaintainOutcome::Unaffected`] for *every* strategy.
    ///
    /// Base indexes come from a private [`IndexPool`], which merges this
    /// representation's own pre-delta indexes rather than re-sorting; an
    /// engine passes its store to [`CompressedView::maintain_pooled`]
    /// instead, where the merge has already happened once for all views.
    ///
    /// # Errors
    ///
    /// Propagates schema errors from rebuilding the base indexes.
    pub fn maintain(
        &self,
        original: &AdornedView,
        db: &Database,
        delta: &Delta,
    ) -> Result<MaintainOutcome> {
        self.maintain_pooled(original, db, delta, &IndexPool::new())
    }

    /// [`CompressedView::maintain`] drawing every post-delta base index
    /// from `pool`: the maintained representation then shares each one
    /// with every other holder of the pool, exactly as a rebuilt one would.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CompressedView::maintain`].
    pub fn maintain_pooled(
        &self,
        original: &AdornedView,
        db: &Database,
        delta: &Delta,
        pool: &IndexPool,
    ) -> Result<MaintainOutcome> {
        let query = original.query();
        if !query.atoms.iter().any(|a| delta.touches(&a.relation)) {
            return Ok(MaintainOutcome::Unaffected);
        }
        // Every non-always-empty path below works on the stored (rewritten)
        // view, whose relations coincide with the base relations only when
        // no atom needed the Example 3 rewrite.
        let needs_rewrite = query.atoms.iter().any(|a| !a.is_natural());
        let rewrite_rebuild = || {
            Ok(MaintainOutcome::NeedsRebuild {
                reason: "the Example 3 rewrite derives filtered relations; \
                         the delta would need the same rewrite"
                    .into(),
            })
        };
        let base_report = || MaintainReport {
            delta_tuples: touched_tuples(query, delta),
            ..MaintainReport::default()
        };
        let irreconcilable = || {
            Ok(MaintainOutcome::NeedsRebuild {
                reason: "a maintained index could not be reconciled with the post-delta database"
                    .into(),
            })
        };
        match self {
            CompressedView::Tradeoff(s) => {
                if needs_rewrite {
                    return rewrite_rebuild();
                }
                maintain_theorem1(s, db, delta, pool)
            }
            CompressedView::Decomposed(s) => {
                if needs_rewrite {
                    return rewrite_rebuild();
                }
                match s.maintained(db, delta)? {
                    Some((v, rebuilt_bags)) => Ok(MaintainOutcome::Maintained {
                        view: Box::new(CompressedView::Decomposed(v)),
                        report: MaintainReport {
                            affected_nodes: rebuilt_bags,
                            ..base_report()
                        },
                    }),
                    None => irreconcilable(),
                }
            }
            CompressedView::AlwaysEmpty(_) => {
                // Inserts can make a previously failing ground guard pass,
                // so "always empty" must be re-derived, not trusted.
                // (Removes keep a failing guard failing, but re-deriving
                // handles both directions uniformly.)
                let rewritten = rewrite_view(original, db)?;
                if rewritten.always_empty {
                    Ok(MaintainOutcome::Maintained {
                        view: Box::new(CompressedView::AlwaysEmpty(rewritten.view)),
                        report: base_report(),
                    })
                } else {
                    Ok(MaintainOutcome::NeedsRebuild {
                        reason: "the delta satisfied a previously failing ground guard".into(),
                    })
                }
            }
        }
    }
}

/// Tuples of `delta`, inserted plus removed, that land in the relations of
/// `query` (each relation once, however many atoms name it).
pub fn touched_tuples(query: &cqc_query::ConjunctiveQuery, delta: &Delta) -> usize {
    let mut names: Vec<&str> = query.atoms.iter().map(|a| a.relation.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .iter()
        .map(|n| {
            delta.tuples_for(n).map_or(0, <[_]>::len) + delta.removes_for(n).map_or(0, <[_]>::len)
        })
        .sum()
}

/// Theorem 1 maintenance proper. `s` was built over the pre-delta database
/// and is a natural-join view, `db` is the post-delta database.
fn maintain_theorem1(
    s: &Theorem1Structure,
    db: &Database,
    delta: &Delta,
    pool: &IndexPool,
) -> Result<MaintainOutcome> {
    let query = s.view.query();
    let free_head = s.view.free_head();
    let bound_head = s.view.bound_head();

    // Precondition: the free-variable grid is unchanged. A grown active
    // domain shifts ranks, and every interval in the tree is rank-space.
    let all_domains = query.active_domains(db)?;
    let same_grid = free_head
        .iter()
        .zip(&s.domains)
        .all(|(v, old)| all_domains[v.index()] == *old);
    if !same_grid {
        return Ok(MaintainOutcome::NeedsRebuild {
            reason: "a free variable's active domain changed; the rank-space grid shifted".into(),
        });
    }

    // Base-index refresh over the post-delta database: each of the plan's
    // tries is traded in at the pool for its successor — the delta *merged*
    // into it (one `SortedIndex::splice`, O(|D| + |δ| log |D|) work), once
    // for every holder, instead of re-sorted per
    // holder. A trie that cannot be reconciled with the post-delta
    // relations is sorted afresh, through the same pool. No cost oracle is
    // involved: the tree and the set of heavy pairs are kept, and a bit is
    // re-decided by a probe join, not a count.
    let plan = match s.plan.maintained(&s.view, db, delta, pool)? {
        Some(plan) => plan,
        None => ViewPlan::build_pooled(&s.view, db, pool)?,
    };

    let mut report = MaintainReport {
        delta_tuples: touched_tuples(query, delta),
        ..MaintainReport::default()
    };
    // The successor: the refreshed plan, the same grid and tree, a copy of
    // the bits. The set of stored pairs is untouched, so it shares the
    // tree and the dictionary's key buffers with `s`.
    let mut succ = Theorem1Structure {
        view: s.view.clone(),
        plan,
        domains: s.domains.clone(),
        tree: s.tree.clone(),
        dict: s.dict.clone(),
        sizes: s.sizes.clone(),
        weights: s.weights.clone(),
        alpha: s.alpha,
        tau: s.tau,
    };
    let Some(tree) = &s.tree else {
        // Empty grid at build time and the grid is unchanged: still empty.
        return Ok(MaintainOutcome::Maintained {
            view: Box::new(CompressedView::Tradeoff(succ)),
            report,
        });
    };

    // One slab per (atom, delta tuple) pair — an atom is touched per
    // occurrence, so self-joins see the tuple once per role. Inserts and
    // removes get separate slab lists: inserts can only invalidate `0`
    // bits, removes can only invalidate `1` bits. (A removed tuple's
    // values still rank: the grid check above guarantees the active
    // domains are unchanged, and the tuple was present pre-delta.)
    let enum_pos_of = |v: cqc_query::Var| free_head.iter().position(|w| *w == v);
    let bound_pos_of = |v: cqc_query::Var| bound_head.iter().position(|w| *w == v);
    let slab_of = |t: &[Value], atom: &cqc_query::atom::Atom| -> Option<Slab> {
        let mut free_fix = Vec::new();
        let mut bound_fix = Vec::new();
        for (col, v) in atom.vars().enumerate() {
            if let Some(p) = enum_pos_of(v) {
                // `None` is unreachable after the grid check; bail soundly
                // rather than trusting the invariant.
                free_fix.push((p, s.domains[p].rank(t[col])?));
            } else if let Some(p) = bound_pos_of(v) {
                bound_fix.push((p, t[col]));
            }
        }
        Some(Slab {
            free_fix,
            bound_fix,
        })
    };
    let mut ins_slabs: Vec<Slab> = Vec::new();
    let mut rem_slabs: Vec<Slab> = Vec::new();
    for atom in &query.atoms {
        for (tuples, out) in [
            (delta.tuples_for(&atom.relation), &mut ins_slabs),
            (delta.removes_for(&atom.relation), &mut rem_slabs),
        ] {
            for t in tuples.unwrap_or(&[]) {
                match slab_of(t, atom) {
                    Some(slab) => out.push(slab),
                    None => {
                        return Ok(MaintainOutcome::NeedsRebuild {
                            reason: "a delta value is outside the free grid".into(),
                        });
                    }
                }
            }
        }
    }

    // Re-probe stale bits on affected nodes: `0` bits hit by an insert
    // slab (the restricted join may have become non-empty — leaving the
    // bit would suppress answers) and `1` bits hit by a remove slab (the
    // join may have drained — leaving the bit erodes the delay bound).
    // Locality makes this the only repair needed (see module docs). A
    // re-probe is the successor's own `⊥` branch over the node interval,
    // stopped at its first answer.
    //
    // The walk is top-down: intervals nest, so a node no slab hits roots a
    // subtree no slab hits, and only the affected root-to-leaf paths (plus
    // their immediate children) are ever decomposed.
    let mut box_list = BoxList::new();
    let mut probe = succ.enumerator();
    let mut hit_ins: Vec<&Slab> = Vec::new();
    let mut hit_rem: Vec<&Slab> = Vec::new();
    let mut vb: Vec<Value> = Vec::new();
    // Entries whose bit changes, applied to the copy once the walk is done.
    let mut changed: Vec<u32> = Vec::new();
    s.dict.walk(tree, |step| {
        let interval = step.interval;
        box_decomposition_ranks(&interval.lo, &interval.hi, &s.sizes, &mut box_list);
        let boxes = box_list.as_slice();
        for (slabs, hit) in [(&ins_slabs, &mut hit_ins), (&rem_slabs, &mut hit_rem)] {
            hit.clear();
            hit.extend(
                slabs
                    .iter()
                    .filter(|slab| boxes.iter().any(|b| slab.hits_box(b))),
            );
        }
        if hit_ins.is_empty() && hit_rem.is_empty() {
            return false;
        }
        report.affected_nodes += 1;
        // A leaf has no entry to re-probe.
        for e in step.entries {
            let bit = s.dict.bit(e.entry);
            let hits = if bit { &hit_rem } else { &hit_ins };
            s.dict.candidate_into(e.cand, &mut vb);
            if !hits.iter().any(|slab| slab.matches_valuation(&vb)) {
                continue;
            }
            report.reprobed_entries += 1;
            probe.reset_interval(&vb, interval);
            let nonempty = probe.advance();
            match (bit, nonempty) {
                (false, true) => report.flipped_bits += 1,
                (true, false) => report.cleared_bits += 1,
                _ => {}
            }
            if nonempty != bit {
                changed.push(e.entry);
            }
        }
        true
    });
    for entry in changed {
        succ.dict.flip(entry, !succ.dict.bit(entry));
    }

    Ok(MaintainOutcome::Maintained {
        view: Box::new(CompressedView::Tradeoff(succ)),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use cqc_common::value::Tuple;
    use cqc_join::naive::evaluate_view;
    use cqc_query::parser::parse_adorned;
    use cqc_storage::Relation;
    use std::sync::Arc;

    fn triangle_db(rows: usize, domain: u64, seed: u64) -> Database {
        let mut db = Database::new();
        let mut rng = cqc_workload::rng(seed);
        for name in ["R", "S", "T"] {
            db.add(cqc_workload::uniform_relation(
                &mut rng, name, 2, rows, domain,
            ))
            .unwrap();
        }
        db
    }

    /// A delta that recombines existing column values, so active domains
    /// (unions of columns) are guaranteed stable and the maintain path is
    /// reachable.
    fn in_domain_delta(db: &Database, names: &[&str], per_rel: usize, seed: u64) -> Delta {
        cqc_workload::recombination_delta(&mut cqc_workload::rng(seed), db, names, per_rel)
    }

    fn answers(cv: &CompressedView, vb: &[Value]) -> Vec<Tuple> {
        let mut block = cqc_common::AnswerBlock::new();
        cv.answer_into(vb, &mut block).unwrap();
        block.to_tuples()
    }

    /// How many distinct base-index allocations `cv` holds.
    fn distinct_indexes(cv: &CompressedView) -> usize {
        let allocations: std::collections::HashSet<_> =
            cv.base_indexes().into_iter().map(Arc::as_ptr).collect();
        allocations.len()
    }

    #[test]
    fn maintained_matches_rebuild_on_random_deltas() {
        // The acceptance property: over random deltas, a maintained
        // Theorem 1 structure answers identically to a from-scratch
        // rebuild on the post-delta database.
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        for seed in 0..12u64 {
            let mut db = triangle_db(60, 12, seed * 31 + 1);
            let built = CompressedView::build(
                &view,
                &db,
                Strategy::Tradeoff {
                    tau: 2.0,
                    weights: Some(vec![0.5, 0.5, 0.5]),
                },
            )
            .unwrap();
            let delta = in_domain_delta(&db, &["R", "S", "T"], 4, seed * 7 + 3);
            db.apply(&delta).unwrap();

            let outcome = built.maintain(&view, &db, &delta).unwrap();
            let MaintainOutcome::Maintained {
                view: maintained, ..
            } = outcome
            else {
                panic!("expected maintenance, got {outcome:?} (seed {seed})");
            };
            let rebuilt = CompressedView::build(
                &view,
                &db,
                Strategy::Tradeoff {
                    tau: 2.0,
                    weights: Some(vec![0.5, 0.5, 0.5]),
                },
            )
            .unwrap();
            for x in 0..12u64 {
                for z in 0..12u64 {
                    let vb = [x, z];
                    let got = answers(&maintained, &vb);
                    let expect = answers(&rebuilt, &vb);
                    assert_eq!(got, expect, "seed {seed}, vb {vb:?}");
                    let oracle = evaluate_view(&view, &db, &vb).unwrap();
                    assert_eq!(got, oracle, "seed {seed}, vb {vb:?} vs naive oracle");
                }
            }
        }
    }

    #[test]
    fn stale_zero_bits_are_flipped() {
        // Engineer a stored 0 bit and a delta that creates answers inside
        // its interval: without the re-probe the answer would be lost.
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
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
        let built = CompressedView::build(
            &view,
            &db,
            Strategy::Tradeoff {
                tau: 1.0,
                weights: Some(vec![0.5, 0.5, 0.5]),
            },
        )
        .unwrap();

        // (x=4, z=4): T(4,4) exists but R(4,·)/S(·,4) only meet at y=2
        // after we insert S(2,4)… which already exists; instead create the
        // missing R(4, 2) companion pair (4, y=4): add S(4,4) wait—
        // keep it simple: before the delta Q(4, y, 1) is empty; insert
        // S(2,1): R(4,2), S(2,1), T(1,4)? T(1,4) missing. Use values that
        // complete a triangle through existing tuples:
        // R(4,2) ∧ S(2,1)(new) ∧ T(1,2)? needs T(z=1, x=4) → insert both.
        let mut delta = Delta::new();
        delta.insert("S", vec![2, 1]);
        delta.insert("T", vec![1, 4]);
        db.apply(&delta).unwrap();

        let before: Vec<Tuple> = answers(&built, &[4, 1]);
        assert!(before.is_empty(), "stale structure knows nothing of y=2");
        let outcome = built.maintain(&view, &db, &delta).unwrap();
        let MaintainOutcome::Maintained {
            view: maintained,
            report,
        } = outcome
        else {
            panic!("expected maintenance, got {outcome:?}");
        };
        assert_eq!(answers(&maintained, &[4, 1]), vec![vec![2u64]]);
        let oracle = evaluate_view(&view, &db, &[4, 1]).unwrap();
        assert_eq!(answers(&maintained, &[4, 1]), oracle);
        assert!(report.delta_tuples == 2, "{report:?}");
        // All other requests agree with the oracle too.
        for x in 0..6u64 {
            for z in 0..6u64 {
                assert_eq!(
                    answers(&maintained, &[x, z]),
                    evaluate_view(&view, &db, &[x, z]).unwrap(),
                    "vb ({x},{z})"
                );
            }
        }
    }

    #[test]
    fn untouched_relations_report_unaffected() {
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        let mut db = triangle_db(40, 10, 5);
        db.add(Relation::from_pairs("U", vec![(1, 2)])).unwrap();
        let built = CompressedView::build(
            &view,
            &db,
            Strategy::Tradeoff {
                tau: 2.0,
                weights: None,
            },
        )
        .unwrap();
        let mut delta = Delta::new();
        delta.insert("U", vec![5, 6]);
        db.apply(&delta).unwrap();
        assert!(matches!(
            built.maintain(&view, &db, &delta).unwrap(),
            MaintainOutcome::Unaffected
        ));
    }

    #[test]
    fn domain_growth_forces_rebuild() {
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        let mut db = triangle_db(40, 10, 9);
        let built = CompressedView::build(
            &view,
            &db,
            Strategy::Tradeoff {
                tau: 2.0,
                weights: None,
            },
        )
        .unwrap();
        // 999 is outside every column: y's active domain grows.
        let mut delta = Delta::new();
        delta.insert("R", vec![0, 999]);
        db.apply(&delta).unwrap();
        assert!(matches!(
            built.maintain(&view, &db, &delta).unwrap(),
            MaintainOutcome::NeedsRebuild { .. }
        ));
    }

    #[test]
    fn rewritten_views_ask_for_rebuild() {
        let mut db = triangle_db(40, 10, 13);
        // Constants in the view (Example 3 rewrite) refuse maintenance.
        let mut db3 = Database::new();
        db3.add(Relation::new(
            "R",
            3,
            vec![vec![1, 2, 9], vec![1, 3, 9], vec![2, 2, 5]],
        ))
        .unwrap();
        let cview = parse_adorned("Q(x, y) :- R(x, y, 9)", "bf").unwrap();
        let built = CompressedView::build(
            &cview,
            &db3,
            Strategy::Tradeoff {
                tau: 1.0,
                weights: None,
            },
        )
        .unwrap();
        let mut delta = Delta::new();
        delta.insert("R", vec![2, 3, 9]);
        db3.apply(&delta).unwrap();
        assert!(matches!(
            built.maintain(&cview, &db3, &delta).unwrap(),
            MaintainOutcome::NeedsRebuild { .. }
        ));
        let _ = db.apply(&Delta::new());
    }

    #[test]
    fn always_empty_guard_flip_is_detected() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
        db.add(Relation::from_pairs("G", vec![(5, 5)])).unwrap();
        let view = parse_adorned("Q(x, y) :- R(x, y), G(7, 7)", "bf").unwrap();
        let built = CompressedView::build(&view, &db, Strategy::Direct).unwrap();
        assert_eq!(built.strategy_name(), "always-empty");

        // A delta elsewhere in G keeps the guard failing: maintainable.
        let mut delta = Delta::new();
        delta.insert("G", vec![6, 6]);
        db.apply(&delta).unwrap();
        match built.maintain(&view, &db, &delta).unwrap() {
            MaintainOutcome::Maintained { view: v, .. } => {
                assert_eq!(v.strategy_name(), "always-empty");
                assert!(!v.exists(&[1]).unwrap());
            }
            other => panic!("expected maintained always-empty, got {other:?}"),
        }

        // Satisfying the guard must force a rebuild (the view is no longer
        // empty).
        let mut delta = Delta::new();
        delta.insert("G", vec![7, 7]);
        db.apply(&delta).unwrap();
        assert!(matches!(
            built.maintain(&view, &db, &delta).unwrap(),
            MaintainOutcome::NeedsRebuild { .. }
        ));
    }

    /// The acceptance property: over mixed insert/delete deltas, every
    /// strategy's maintained representation answers like a from-scratch
    /// rebuild on the post-delta database, and both like the naive oracle
    /// — in its order, unless the recipe is a searched decomposition (whose
    /// stream follows the pre-order of its bags).
    ///
    /// Rows: six seeded domain-safe deltas on the triangle, which every
    /// strategy must maintain; and a 2-path whose `y` sits in both atoms
    /// (re-deriving `materialize`'s one bag must join the inserted `R(7, 2)`
    /// through the surviving `S(2, 5)`) and whose delta grows `x`'s active
    /// domain and shrinks `z`'s, so a Theorem 1 structure — `direct`
    /// included — must ask for a rebuild instead.
    #[test]
    fn maintained_matches_rebuild_on_mixed_deltas_all_strategies() {
        // The grid, with the row's Theorem 1 cover (`None`: the LP's) and
        // the decomposition the planner resolves `decomposed:1.5` to.
        let strategies = |view: &AdornedView, weights: Option<Vec<f64>>| {
            vec![
                Strategy::Materialize,
                Strategy::Direct,
                Strategy::Tradeoff { tau: 2.0, weights },
                Strategy::Factorized,
                crate::compressed::tests::decomposed(view, 1.5),
            ]
        };
        // (label, view, pre-delta database, delta, bound values to request,
        // whether the delta keeps every active domain, Theorem 1 cover)
        type Row = (
            String,
            AdornedView,
            Database,
            Delta,
            Vec<Vec<Value>>,
            bool,
            Option<Vec<f64>>,
        );
        let mut rows: Vec<Row> = Vec::new();
        let triangle = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        let pairs: Vec<Vec<Value>> = (0..12u64)
            .flat_map(|x| (0..12u64).map(move |z| vec![x, z]))
            .collect();
        for seed in 0..6u64 {
            let db = triangle_db(60, 12, seed * 53 + 11);
            let delta = cqc_workload::mixed_delta(
                &mut cqc_workload::rng(seed * 13 + 5),
                &db,
                &["R", "S", "T"],
                3,
                2,
            );
            assert!(
                delta.remove_groups().any(|(_, t)| !t.is_empty()),
                "seed {seed}: the mixed delta must actually delete something"
            );
            let label = format!("triangle seed {seed}");
            let cover = Some(vec![0.5, 0.5, 0.5]);
            rows.push((
                label,
                triangle.clone(),
                db,
                delta,
                pairs.clone(),
                true,
                cover,
            ));
        }
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (3, 4)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 5), (4, 6)]))
            .unwrap();
        let mut delta = Delta::new();
        delta.insert("R", vec![7, 2]);
        delta.remove("S", vec![4, 6]);
        let path2 = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "fff").unwrap();
        rows.push(("2-path".into(), path2, db, delta, vec![vec![]], false, None));

        for (label, view, db, delta, requests, domain_safe, cover) in &rows {
            for strat in &strategies(view, cover.clone()) {
                let head_order = !matches!(
                    strat,
                    Strategy::Factorized | Strategy::DecomposedExplicit { .. }
                );
                let comparable = |mut got: Vec<Tuple>| {
                    if !head_order {
                        got.sort_unstable();
                    }
                    got
                };
                let built = CompressedView::build(view, db, strat.clone()).unwrap();
                let mut db = db.clone();
                db.apply(delta).unwrap();
                let rebuilt = CompressedView::build(view, &db, strat.clone()).unwrap();
                let name = built.strategy_name();
                for vb in requests {
                    let oracle = evaluate_view(view, &db, vb).unwrap();
                    let re = comparable(answers(&rebuilt, vb));
                    assert_eq!(re, oracle, "rebuilt {name} {label} vb {vb:?}");
                }

                let outcome = built.maintain(view, &db, delta).unwrap();
                // Theorem 1 is pinned to its rank-space grid.
                if !domain_safe && matches!(built, CompressedView::Tradeoff(_)) {
                    let MaintainOutcome::NeedsRebuild { reason } = outcome else {
                        panic!("expected a rebuild for {name}, got {outcome:?} ({label})");
                    };
                    assert!(reason.contains("active domain"), "{name} {label}: {reason}");
                    continue;
                }
                let MaintainOutcome::Maintained {
                    view: maintained, ..
                } = outcome
                else {
                    panic!("expected maintenance for {name}, got {outcome:?} ({label})");
                };
                assert_eq!(maintained.strategy_name(), name);
                if matches!(strat, Strategy::Factorized | Strategy::Materialize) {
                    for cv in [&built, &*maintained] {
                        assert!(
                            matches!(cv, CompressedView::Decomposed(s) if s.stats().tradeoff_bags == 0),
                            "{label}: {}",
                            cv.describe()
                        );
                    }
                }
                // Maintenance must not un-share: the plan holds one merged
                // allocation per (relation, order), as after a build.
                assert_eq!(
                    distinct_indexes(&maintained),
                    distinct_indexes(&rebuilt),
                    "{name} {label}"
                );
                if let (CompressedView::Tradeoff(m), CompressedView::Tradeoff(r)) =
                    (&*maintained, &rebuilt)
                {
                    // The reported figure adds the grid, whose capacities
                    // may differ by a word between a clone and a collect.
                    let (m, r) = (
                        m.space_breakdown().base_index_distinct_bytes,
                        r.space_breakdown().base_index_distinct_bytes,
                    );
                    assert!(m.abs_diff(r) * 100 <= r, "{label}: {m} vs {r}");
                }
                for vb in requests {
                    let oracle = evaluate_view(view, &db, vb).unwrap();
                    let got = comparable(answers(&maintained, vb));
                    assert_eq!(got, oracle, "{name} {label} vb {vb:?}");
                }
            }
        }
    }

    /// Deleting the only witness of an interval must flip its stale `1`
    /// bit back to `0` — the mirror of `stale_zero_bits_are_flipped`. The
    /// pair must be heavy by work to hold a bit at all: `R(4, ·)` (the even
    /// values to 40) and `S(·, 1)` (the odd ones to 41, and 2) meet only at
    /// 2, and their leapfrog passes the cap of 16 units on the way.
    #[test]
    fn stale_one_bits_are_cleared_on_delete() {
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        let mut db = Database::new();
        let mut r = vec![(1, 2), (2, 3), (1, 3), (3, 1), (2, 1), (4, 2)];
        r.extend((2..=20).map(|k| (4, 2 * k)));
        db.add(Relation::from_pairs("R", r)).unwrap();
        let mut s = vec![(2, 3), (3, 1), (3, 2), (1, 2), (2, 4), (2, 1)];
        s.extend((2..=20).map(|k| (2 * k + 1, 1)));
        db.add(Relation::from_pairs("S", s)).unwrap();
        db.add(Relation::from_pairs(
            "T",
            vec![(3, 1), (1, 2), (2, 3), (2, 1), (4, 4), (1, 4)],
        ))
        .unwrap();
        let built = CompressedView::build(
            &view,
            &db,
            Strategy::Tradeoff {
                tau: 1.0,
                weights: Some(vec![0.5, 0.5, 0.5]),
            },
        )
        .unwrap();
        // Q(4, y, 1) = {2} via R(4,2) ∧ S(2,1) ∧ T(1,4); deleting S(2,1)
        // kills the only witness. The value 1 stays in S's second column
        // (S(3,1)), so the free grid is unchanged and maintenance runs.
        assert_eq!(answers(&built, &[4, 1]), vec![vec![2u64]]);
        let mut delta = Delta::new();
        delta.remove("S", vec![2, 1]);
        db.apply(&delta).unwrap();

        let outcome = built.maintain(&view, &db, &delta).unwrap();
        let MaintainOutcome::Maintained {
            view: maintained,
            report,
        } = outcome
        else {
            panic!("expected maintenance, got {outcome:?}");
        };
        assert!(answers(&maintained, &[4, 1]).is_empty());
        assert_eq!(report.delta_tuples, 1, "{report:?}");
        assert!(report.cleared_bits >= 1, "{report:?}");
        for x in 0..6u64 {
            for z in 0..6u64 {
                assert_eq!(
                    answers(&maintained, &[x, z]),
                    evaluate_view(&view, &db, &[x, z]).unwrap(),
                    "vb ({x},{z})"
                );
            }
        }
    }

    /// The dictionary stores nothing below a `0`, so a pair heavy at the
    /// child of a build-time `0` has no entry. An insert that creates the
    /// first answer inside such a `0` interval, at a point of its heavy
    /// internal child, flips the `0` to `1`; the child then reads `⊥` and
    /// Algorithm 2 evaluates it directly on the refreshed indexes. The
    /// answers are exact; only that child's delay is bounded by its
    /// build-time weight rather than by τ until the view is rebuilt.
    #[test]
    fn an_insert_under_a_pruned_zero_serves_the_naive_join() {
        use crate::cost::CostEstimator;
        use cqc_common::util::approx_gt;
        let (relations, dom) = cqc_workload::triangle_relations(7, 400);
        let mut db = Database::new();
        for r in relations {
            db.add(r).unwrap();
        }
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
        let strategy = || Strategy::Tradeoff {
            tau: 2.0,
            weights: Some(vec![0.5; 3]),
        };
        let built = CompressedView::build(&view, &db, strategy()).unwrap();
        let CompressedView::Tradeoff(s) = &built else {
            panic!("a Theorem 1 structure");
        };
        let (tree, dict) = (s.tree().unwrap(), s.dictionary());
        let est = CostEstimator::build(&view, &db, s.weights(), s.alpha()).unwrap();
        let sizes = est.sizes();

        // The first `(w, v_b)` in walk order stored as `0` whose internal
        // child `c` holds `v_b` heavy: a pair the layout drops.
        let mut found = None;
        let mut vb = Vec::new();
        dict.walk(tree, |step| {
            for e in step.entries.iter().filter(|e| !dict.bit(e.entry)) {
                dict.candidate_into(e.cand, &mut vb);
                for c in [step.node.left, step.node.right].into_iter().flatten() {
                    let interval = tree.interval(c);
                    let t = est.t_interval_bound(&vb, &interval, &sizes);
                    if found.is_none()
                        && !tree.is_leaf(c.node)
                        && approx_gt(t, tree.threshold_of(c.level))
                    {
                        found = Some((step.node.internal.unwrap(), c, interval, vb.clone()));
                    }
                }
            }
            found.is_none()
        });
        let (w, c, interval, vb) = found.expect("a heavy pair below a 0");
        let child = tree.internal_rank(c.node).unwrap();
        assert_eq!(dict.get(tree, w, &vb), Some(false));
        assert_eq!(dict.get(tree, child, &vb), None, "dropped below the 0");

        // Complete the triangle at `I(c)`'s first point: every value is in
        // its active domain already, so the grid stays.
        let doms = est.domains();
        let (x, y, z) = (
            vb[0],
            doms[0].value(interval.lo[0]),
            doms[1].value(interval.lo[1]),
        );
        let mut delta = Delta::new();
        for (name, t) in [("R", vec![x, y]), ("S", vec![y, z]), ("T", vec![z, x])] {
            if !db.get(name).unwrap().contains(&t) {
                delta.insert(name, t);
            }
        }
        assert!(answers(&built, &vb).iter().all(|a| a[..] != [y, z]));
        db.apply(&delta).unwrap();

        let outcome = built.maintain(&view, &db, &delta).unwrap();
        let MaintainOutcome::Maintained {
            view: maintained,
            report,
        } = outcome
        else {
            panic!("expected maintenance, got {outcome:?}");
        };
        assert!(report.flipped_bits >= 1, "{report:?}");
        let CompressedView::Tradeoff(m) = &*maintained else {
            panic!("a Theorem 1 structure");
        };
        assert_eq!(m.dictionary().get(tree, w, &vb), Some(true));
        assert_eq!(m.dictionary().get(tree, child, &vb), None, "⊥ at the child");
        let got = answers(&maintained, &vb);
        assert!(got.contains(&vec![y, z]), "the inserted answer is served");
        let rebuilt = CompressedView::build(&view, &db, strategy()).unwrap();
        for x in 0..dom {
            let expect = evaluate_view(&view, &db, &[x]).unwrap();
            assert_eq!(answers(&maintained, &[x]), expect, "v_b ({x})");
            assert_eq!(answers(&rebuilt, &[x]), expect, "v_b ({x}) rebuilt");
        }
    }

    /// A delete that makes a domain value vanish entirely must force a
    /// rebuild (the rank-space grid shrinks).
    #[test]
    fn domain_shrink_forces_rebuild() {
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (1, 9), (2, 3)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 3), (3, 1), (9, 1)]))
            .unwrap();
        db.add(Relation::from_pairs("T", vec![(3, 1), (1, 2)]))
            .unwrap();
        let built = CompressedView::build(
            &view,
            &db,
            Strategy::Tradeoff {
                tau: 2.0,
                weights: None,
            },
        )
        .unwrap();
        // y = 9 occurs only in R(1,9) and S(9,1): removing both erases it
        // from y's active domain.
        let mut delta = Delta::new();
        delta.remove("R", vec![1, 9]);
        delta.remove("S", vec![9, 1]);
        db.apply(&delta).unwrap();
        assert!(matches!(
            built.maintain(&view, &db, &delta).unwrap(),
            MaintainOutcome::NeedsRebuild { .. }
        ));
    }

    /// All-bound views (Prop. 1, Theorem 2 with no bag below the root)
    /// maintain by re-taking their root checks from the post-delta
    /// database; membership must track it.
    #[test]
    fn bound_only_maintained_tracks_membership() {
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bbb").unwrap();
        let mut db = triangle_db(40, 8, 21);
        let built = CompressedView::build(&view, &db, Strategy::Factorized).unwrap();
        assert!(matches!(&built, CompressedView::Decomposed(s) if s.stats().bags == 0));
        let delta =
            cqc_workload::mixed_delta(&mut cqc_workload::rng(77), &db, &["R", "S", "T"], 3, 3);
        db.apply(&delta).unwrap();
        let outcome = built.maintain(&view, &db, &delta).unwrap();
        let MaintainOutcome::Maintained {
            view: maintained,
            report,
        } = outcome
        else {
            panic!("expected maintenance, got {outcome:?}");
        };
        assert_eq!(report.affected_nodes, 0, "no bag to re-derive");
        for x in 0..8u64 {
            for y in 0..8u64 {
                for z in 0..8u64 {
                    let oracle = !evaluate_view(&view, &db, &[x, y, z]).unwrap().is_empty();
                    assert_eq!(
                        maintained.exists(&[x, y, z]).unwrap(),
                        oracle,
                        "({x},{y},{z})"
                    );
                }
            }
        }
    }
}
