//! Balanced interval splitting (Lemma 3 and Algorithm 1).
//!
//! Given an f-interval `I` with cost `T = T(I)`, Algorithm 1 computes a
//! split point `c ∈ D_f` such that both `T([a, c))` and `T((c, b])` are at
//! most `T/2` (Prop. 8). It first locates the box `B_s` of `B(I)` where the
//! prefix sums cross `T/2`, then refines coordinate by coordinate inside
//! `B_s`, each step a binary search over the variable's active domain
//! (Lemma 3) — Õ(1) total, thanks to the count oracle.

use crate::cost::PrefixCost;
use crate::fbox::CanonicalBox;
use cqc_common::util::{approx_ge, approx_gt, partition_point};

/// Algorithm 1: a split point `c` of an interval such that
/// `T([lo, c)) ≤ T/2` and `T((c, hi]) ≤ T/2`, written into `c`.
///
/// The caller hands over the interval's box decomposition and the `T` of
/// each box (`t_of`), which it needed for its own leaf test anyway; `cost`
/// is reused scratch whose prefix this call overwrites.
///
/// # Panics
///
/// Panics if `T(interval) = 0` (the caller never splits zero-cost
/// intervals).
pub fn split_interval(
    cost: &mut PrefixCost<'_>,
    sizes: &[usize],
    boxes: &[CanonicalBox],
    t_of: &[f64],
    c: &mut Vec<usize>,
) {
    let mu = sizes.len();
    let total: f64 = t_of.iter().sum();
    assert!(total > 0.0, "cannot split a zero-cost interval");

    // s = argmin_j { Σ_{i≤j} T(B_i) > T/2 }.
    let mut acc = 0.0f64;
    let mut s = boxes.len() - 1;
    for (j, &t) in t_of.iter().enumerate() {
        acc += t;
        if approx_gt(acc, total / 2.0) {
            s = j;
            break;
        }
    }
    let bs = &boxes[s];

    // Refine inside B_s coordinate by coordinate (line 5–9 of Algorithm 1).
    // γ_j = T of the part of the interval before ⟨c_1..c_j⟩, Δ_j = T(⟨c_1..c_j⟩)
    // with the rest unconstrained.
    c.clear();
    c.extend_from_slice(&bs.prefix);
    cost.reset(c);
    let k = c.len();
    let mut gamma: f64 = t_of[..s].iter().sum();
    for j in k..mu {
        let (r_lo, r_hi, delta) = if j == k {
            (bs.range.0, bs.range.1, t_of[s])
        } else {
            cost.push(c[j - 1]);
            (0, sizes[j] - 1, cost.t(0, sizes[j] - 1))
        };
        // Lemma 3: the smallest rank β ∈ [r_lo, r_hi] with
        // T(⟨c, [r_lo, β]⟩) ≥ min(Δ, T/2 − γ). It exists because the
        // prefix-T is non-decreasing in β and reaches Δ at r_hi.
        let goal = delta.min(total / 2.0 - gamma);
        let cj = partition_point(r_lo, r_hi + 1, |r| approx_ge(cost.t(r_lo, r), goal)).min(r_hi);
        if cj > r_lo {
            gamma += cost.t(r_lo, cj - 1);
        }
        c.push(cj);
    }
    // `c` is `B_s`'s prefix plus one rank per position after it, so µ
    // ranks by construction; the caller's `interval.contains(c)` compares
    // lengths in release too, so a short or long point cannot pass as a
    // split.
    debug_assert_eq!(c.len(), mu);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::tests::running_estimator;
    use crate::cost::CostEstimator;
    use crate::fbox::{box_decomposition, pred, succ, FInterval};
    use rand::Rng;

    /// Decomposes and costs `interval`, then runs Algorithm 1 on it.
    fn split(est: &CostEstimator, sizes: &[usize], interval: &FInterval) -> Vec<usize> {
        let boxes = box_decomposition(interval, sizes);
        let t_of: Vec<f64> = boxes.iter().map(|b| est.t_box(b)).collect();
        let mut c = Vec::new();
        split_interval(&mut PrefixCost::new(est), sizes, &boxes, &t_of, &mut c);
        assert!(
            interval.contains(&c),
            "split point must lie in the interval"
        );
        c
    }

    /// The definition the hoisted search must agree with: `T` of the
    /// canonical box `⟨prefix, range, □…⟩` through [`CostEstimator::t_box`],
    /// every atom narrowed from scratch.
    fn t_prefix_box(est: &CostEstimator, prefix: &[usize], range: (usize, usize)) -> f64 {
        est.t_box(&CanonicalBox {
            prefix: prefix.to_vec(),
            range,
        })
    }

    /// Lemma 3 by the definition: the smallest `β ∈ [r_lo, r_hi]` with
    /// `T(⟨prefix, [r_lo, β]⟩) ≥ min(T(⟨prefix, [r_lo, r_hi]⟩), target)`.
    fn find_beta_by_definition(
        est: &CostEstimator,
        prefix: &[usize],
        (r_lo, r_hi): (usize, usize),
        target: f64,
    ) -> usize {
        let goal = t_prefix_box(est, prefix, (r_lo, r_hi)).min(target);
        (r_lo..=r_hi)
            .find(|&r| approx_ge(t_prefix_box(est, prefix, (r_lo, r)), goal))
            .unwrap_or(r_hi)
    }

    /// Random prefixes and ranges over a skewed triangle (`fff`, so every
    /// position is searched and every atom is a constant at one of them):
    /// the prefix oracle equals `t_box` bit for bit — grown by `push` or
    /// set by `reset` — and the binary search over it finds the β of the
    /// definition's linear scan.
    #[test]
    fn hoisted_find_beta_matches_the_definition() {
        use cqc_query::parser::parse_adorned;
        use cqc_storage::Database;
        let mut rng = cqc_workload::rng(11);
        let zipf = cqc_workload::Zipf::new(30, 1.1);
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            db.add(cqc_workload::gen::zipf_pairs(
                &mut rng, name, 300, 30, &zipf,
            ))
            .unwrap();
        }
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "fff").unwrap();
        for (weights, alpha) in [
            ([0.5, 0.5, 0.5], 1.0),
            ([1.0, 1.0, 0.0], 1.0),
            ([1.0; 3], 2.0),
        ] {
            let est = CostEstimator::build(&view, &db, &weights, alpha).unwrap();
            let sizes = est.sizes();
            let mut cost = PrefixCost::new(&est);
            let mut grown = PrefixCost::new(&est);
            for _ in 0..300 {
                let p = rng.gen_range(0..sizes.len());
                let prefix: Vec<usize> = sizes[..p].iter().map(|&n| rng.gen_range(0..n)).collect();
                let r_lo = rng.gen_range(0..sizes[p]);
                let r_hi = rng.gen_range(r_lo..sizes[p]);
                cost.reset(&prefix);
                grown.reset(&[]);
                prefix.iter().for_each(|&r| grown.push(r));
                for r in r_lo..=r_hi {
                    let expect = t_prefix_box(&est, &prefix, (r_lo, r));
                    assert_eq!(
                        cost.t(r_lo, r).to_bits(),
                        expect.to_bits(),
                        "{prefix:?} {r}"
                    );
                    assert_eq!(
                        grown.t(r_lo, r).to_bits(),
                        expect.to_bits(),
                        "{prefix:?} {r}"
                    );
                }
                if r_lo < r_hi {
                    assert_eq!(cost.t(r_hi, r_lo), 0.0, "empty range");
                }
                let full = cost.t(r_lo, r_hi);
                for target in [0.0, full / 3.0, full / 2.0, full, 2.0 * full + 1.0] {
                    let goal = full.min(target);
                    let beta =
                        partition_point(r_lo, r_hi + 1, |r| approx_ge(cost.t(r_lo, r), goal))
                            .min(r_hi);
                    assert_eq!(
                        beta,
                        find_beta_by_definition(&est, &prefix, (r_lo, r_hi), target),
                        "{prefix:?} [{r_lo}, {r_hi}] target {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn example_14_root_split_is_112() {
        let est = running_estimator();
        let sizes = est.sizes();
        let root = FInterval::full(&sizes).unwrap();
        let c = split(&est, &sizes, &root);
        // β(r) = (1,1,2) in values = ranks (0,0,1).
        assert_eq!(c, vec![0, 0, 1]);
        assert_eq!(est.ranks_to_values(&c), vec![1, 1, 2]);
    }

    #[test]
    fn example_14_second_split_is_122() {
        let est = running_estimator();
        let sizes = est.sizes();
        // I(rr) = [⟨1,2,1⟩, ⟨2,2,2⟩] = ranks [(0,1,0), (1,1,1)].
        let rr = FInterval {
            lo: vec![0, 1, 0],
            hi: vec![1, 1, 1],
        };
        let c = split(&est, &sizes, &rr);
        assert_eq!(est.ranks_to_values(&c), vec![1, 2, 2]);
    }

    /// Proposition 8, exhaustively on the running example: for every
    /// subinterval with positive cost, both halves cost at most T/2 (small
    /// tolerance for floating point).
    #[test]
    fn proposition_8_exhaustive() {
        let est = running_estimator();
        let sizes = est.sizes();
        let all: Vec<Vec<usize>> = {
            let mut pts = Vec::new();
            for a in 0..2 {
                for b in 0..2 {
                    for c in 0..2 {
                        pts.push(vec![a, b, c]);
                    }
                }
            }
            pts
        };
        let mut checked = 0usize;
        for i in 0..all.len() {
            for j in i..all.len() {
                let iv = FInterval {
                    lo: all[i].clone(),
                    hi: all[j].clone(),
                };
                let total = est.t_interval(&iv, &sizes);
                if total <= 0.0 {
                    continue;
                }
                let c = split(&est, &sizes, &iv);
                let half = total / 2.0 + 1e-9;
                if let Some(p) = pred(&c, &sizes) {
                    if iv.contains(&p) {
                        let left = FInterval {
                            lo: iv.lo.clone(),
                            hi: p,
                        };
                        let tl = est.t_interval(&left, &sizes);
                        assert!(tl <= half, "left {tl} > {half} for [{i},{j}]");
                    }
                }
                if let Some(sx) = succ(&c, &sizes) {
                    if iv.contains(&sx) {
                        let right = FInterval {
                            lo: sx,
                            hi: iv.hi.clone(),
                        };
                        let tr = est.t_interval(&right, &sizes);
                        assert!(tr <= half, "right {tr} > {half} for [{i},{j}]");
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 20, "exhaustive sweep must cover many intervals");
    }

    #[test]
    #[should_panic(expected = "zero-cost")]
    fn zero_cost_interval_panics() {
        let est = running_estimator();
        let sizes = est.sizes();
        // The point (2,2,2) has T = 0 (no R1 row with x=2, y=2).
        let iv = FInterval {
            lo: vec![1, 1, 1],
            hi: vec![1, 1, 1],
        };
        split(&est, &sizes, &iv);
    }
}
