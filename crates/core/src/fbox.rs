//! f-intervals, canonical f-boxes and the box decomposition (§4.1).
//!
//! Everything in this module lives in **rank space**: a free variable's
//! value is represented by its rank in the variable's sorted active domain,
//! so the lexicographic product `D_f = D[x_f^1] × … × D[x_f^µ]` becomes the
//! integer grid `[0, n_1) × … × [0, n_µ)`. Successor/predecessor are `±1`
//! with carry, and all the open/closed endpoint bookkeeping of the paper's
//! interval algebra reduces to exact integer arithmetic.

use cqc_storage::domain::{rank_tuple_pred, rank_tuple_succ};
use std::cmp::Ordering;

/// A closed f-interval `[lo, hi]` of rank tuples (lexicographic order).
///
/// Invariant: `lo ≤ hi` lexicographically and both tuples are inside the
/// domain grid. Open intervals are normalized to closed ones by the caller
/// via [`succ`]/[`pred`] — the paper's node intervals `[a, β)` / `(β, c]`
/// become `[a, pred(β)]` / `[succ(β), c]`, exactly as in Figure 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FInterval {
    /// Inclusive lower endpoint (ranks).
    pub lo: Vec<usize>,
    /// Inclusive upper endpoint (ranks).
    pub hi: Vec<usize>,
}

impl FInterval {
    /// The full grid `[⊥…⊥, ⊤…⊤]` for the given domain sizes.
    ///
    /// Returns `None` when some domain is empty (the grid has no points).
    pub fn full(sizes: &[usize]) -> Option<FInterval> {
        if sizes.contains(&0) {
            return None;
        }
        Some(FInterval {
            lo: vec![0; sizes.len()],
            hi: sizes.iter().map(|&s| s - 1).collect(),
        })
    }

    /// Number of free variables µ.
    pub fn mu(&self) -> usize {
        self.lo.len()
    }

    /// `true` if the interval is the single point `lo == hi`.
    pub fn is_unit(&self) -> bool {
        self.lo == self.hi
    }

    /// Lexicographic membership test.
    pub fn contains(&self, point: &[usize]) -> bool {
        lex_cmp_ranks(&self.lo, point) != Ordering::Greater
            && lex_cmp_ranks(point, &self.hi) != Ordering::Greater
    }
}

/// Lexicographic comparison of rank tuples.
///
/// # Panics
///
/// Panics, in release builds too, unless both tuples have the same
/// length: comparing only the common prefix would call `[1]` equal to
/// `[1, 0]`.
pub fn lex_cmp_ranks(a: &[usize], b: &[usize]) -> Ordering {
    assert_eq!(a.len(), b.len(), "rank tuples of different lengths");
    for (x, y) in a.iter().zip(b) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// The lexicographic successor of `point` in the grid, or `None` at the top.
pub fn succ(point: &[usize], sizes: &[usize]) -> Option<Vec<usize>> {
    let mut p = point.to_vec();
    rank_tuple_succ(&mut p, sizes).then_some(p)
}

/// The lexicographic predecessor of `point` in the grid, or `None` at the
/// bottom.
pub fn pred(point: &[usize], sizes: &[usize]) -> Option<Vec<usize>> {
    let mut p = point.to_vec();
    rank_tuple_pred(&mut p, sizes).then_some(p)
}

/// A canonical f-box (Definition 2): a unit-value prefix, one ranged
/// variable, and unconstrained variables after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalBox {
    /// Unit ranks at free positions `0..prefix.len()`.
    pub prefix: Vec<usize>,
    /// Inclusive rank range at position `prefix.len()`; positions beyond
    /// are unconstrained (`□`). Empty when `range.0 > range.1`.
    pub range: (usize, usize),
}

impl CanonicalBox {
    /// `true` when the box denotes no valuations.
    pub fn is_empty(&self) -> bool {
        self.range.0 > self.range.1
    }

    /// The position of the ranged variable.
    pub fn range_pos(&self) -> usize {
        self.prefix.len()
    }

    /// A unit box for a full point (all µ positions fixed).
    pub fn unit(point: &[usize]) -> CanonicalBox {
        assert!(!point.is_empty());
        CanonicalBox {
            prefix: point[..point.len() - 1].to_vec(),
            range: (point[point.len() - 1], point[point.len() - 1]),
        }
    }

    /// `true` if the rank tuple lies inside the box.
    pub fn contains(&self, point: &[usize]) -> bool {
        if point.len() <= self.prefix.len() {
            return false;
        }
        self.prefix.iter().zip(point).all(|(a, b)| a == b)
            && point[self.prefix.len()] >= self.range.0
            && point[self.prefix.len()] <= self.range.1
    }
}

/// A reusable buffer of canonical boxes.
///
/// [`box_decomposition_ranks`] refills it in place: the outer `Vec` and
/// every per-box prefix `Vec` keep their capacity across refills, so a
/// `BoxList` owned by a long-lived enumerator reaches a steady state where
/// decomposing a node's interval performs **no** heap allocation.
#[derive(Debug, Clone, Default)]
pub struct BoxList {
    boxes: Vec<CanonicalBox>,
    len: usize,
}

impl BoxList {
    /// An empty list.
    pub fn new() -> BoxList {
        BoxList::default()
    }

    /// Number of live boxes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no boxes are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live boxes.
    pub fn as_slice(&self) -> &[CanonicalBox] {
        &self.boxes[..self.len]
    }

    /// Box `i`.
    pub fn get(&self, i: usize) -> &CanonicalBox {
        &self.boxes[..self.len][i]
    }

    /// Forgets the live boxes, keeping every buffer.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends a box, reusing a retired slot's prefix buffer if available.
    fn push(&mut self, prefix: &[usize], range: (usize, usize)) {
        if self.len < self.boxes.len() {
            let b = &mut self.boxes[self.len];
            b.prefix.clear();
            b.prefix.extend_from_slice(prefix);
            b.range = range;
        } else {
            self.boxes.push(CanonicalBox {
                prefix: prefix.to_vec(),
                range,
            });
        }
        self.len += 1;
    }
}

/// The decomposition core shared by [`box_decomposition`] and
/// [`box_decomposition_ranks`]: emits each box as `(prefix, range)`.
fn decompose(
    lo: &[usize],
    hi: &[usize],
    sizes: &[usize],
    push: &mut impl FnMut(&[usize], (usize, usize)),
) {
    let mu = lo.len();
    assert!(
        mu >= 1,
        "box decomposition needs at least one free variable"
    );
    // In release too: a longer `hi` or `sizes` would be read as far as
    // `lo` reaches and decompose another interval, and endpoints out of
    // order would emit an inverted range.
    assert_eq!(hi.len(), mu, "interval endpoints of different lengths");
    assert_eq!(sizes.len(), mu, "one domain size per free variable");
    assert!(
        lex_cmp_ranks(lo, hi) != Ordering::Greater,
        "interval endpoints out of order"
    );

    // First differing position.
    let Some(j) = (0..mu).find(|&i| lo[i] != hi[i]) else {
        // Unit interval.
        push(&lo[..mu - 1], (lo[mu - 1], lo[mu - 1]));
        return;
    };

    if j == mu - 1 {
        // Endpoints share all but the last position: one closed box.
        push(&lo[..mu - 1], (lo[mu - 1], hi[mu - 1]));
        return;
    }

    // Left boxes, innermost (i = µ-1) outwards to j+1.
    for i in (j + 1..mu).rev() {
        let range = if i == mu - 1 {
            // Closed left endpoint: [lo_i, ⊤].
            (lo[i], sizes[i] - 1)
        } else {
            // (lo_i, ⊤].
            (lo[i] + 1, sizes[i] - 1)
        };
        if range.0 <= range.1 {
            push(&lo[..i], range);
        }
    }
    // Middle box: ⟨lo[..j], (lo_j, hi_j)⟩.
    if lo[j] < hi[j].wrapping_sub(1) && hi[j] > 0 {
        let range = (lo[j] + 1, hi[j] - 1);
        if range.0 <= range.1 {
            push(&lo[..j], range);
        }
    }
    // Right boxes, outermost (i = j+1) to innermost (µ-1).
    for i in j + 1..mu {
        let range = if i == mu - 1 {
            // Closed right endpoint: [⊥, hi_i].
            (0, hi[i])
        } else {
            // [⊥, hi_i).
            if hi[i] == 0 {
                continue;
            }
            (0, hi[i] - 1)
        };
        if range.0 <= range.1 {
            push(&hi[..i], range);
        }
    }
}

/// The box decomposition `B(I)` of a closed f-interval (§4.1 / Lemma 1),
/// following the endpoint convention of Example 13: the innermost left and
/// right boxes absorb the closed endpoints, the middle box is open.
///
/// Returned boxes are non-empty, pairwise disjoint, partition `I`, are
/// sorted lexicographically (every point of an earlier box precedes every
/// point of a later box), and number at most `2µ − 1`.
pub fn box_decomposition(interval: &FInterval, sizes: &[usize]) -> Vec<CanonicalBox> {
    let mut boxes = Vec::with_capacity(2 * interval.mu() - 1);
    decompose(&interval.lo, &interval.hi, sizes, &mut |prefix, range| {
        boxes.push(CanonicalBox {
            prefix: prefix.to_vec(),
            range,
        });
    });
    boxes
}

/// [`box_decomposition`] into a reusable [`BoxList`], taking the interval
/// endpoints as borrowed rank slices — the allocation-free form used by
/// the enumerators (no `FInterval` is materialized for clipped node
/// intervals, and no box buffer is reallocated in steady state).
pub fn box_decomposition_ranks(lo: &[usize], hi: &[usize], sizes: &[usize], out: &mut BoxList) {
    out.clear();
    decompose(lo, hi, sizes, &mut |prefix, range| out.push(prefix, range));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enumerates all grid points of an interval (test helper).
    fn points_of_interval(i: &FInterval, sizes: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut cur = i.lo.clone();
        loop {
            out.push(cur.clone());
            if cur == i.hi {
                break;
            }
            assert!(rank_tuple_succ(&mut cur, sizes), "hi not reached");
        }
        out
    }

    fn points_of_box(b: &CanonicalBox, sizes: &[usize]) -> Vec<Vec<usize>> {
        let mu = sizes.len();
        let mut out = Vec::new();
        if b.is_empty() {
            return out;
        }
        // prefix fixed, range var sweeps, the rest full.
        let tail = &sizes[b.range_pos() + 1..];
        let mut tail_points = vec![vec![]];
        for &s in tail {
            let mut next = Vec::new();
            for t in &tail_points {
                for v in 0..s {
                    let mut t2: Vec<usize> = t.clone();
                    t2.push(v);
                    next.push(t2);
                }
            }
            tail_points = next;
        }
        for r in b.range.0..=b.range.1 {
            for t in &tail_points {
                let mut p = b.prefix.clone();
                p.push(r);
                p.extend(t);
                assert_eq!(p.len(), mu);
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn example_13_root_decomposition() {
        // I(r) = [⟨1,1,1⟩, ⟨2,2,2⟩] over domains of size 2 each (values 1,2
        // = ranks 0,1). Expected boxes (in values):
        // ⟨1,1,[1,2]⟩, ⟨1,(1,2]⟩, ⟨2,[1,2)⟩, ⟨2,2,[1,2]⟩.
        let sizes = [2usize, 2, 2];
        let i = FInterval::full(&sizes).unwrap();
        let boxes = box_decomposition(&i, &sizes);
        assert_eq!(
            boxes,
            vec![
                CanonicalBox {
                    prefix: vec![0, 0],
                    range: (0, 1)
                },
                CanonicalBox {
                    prefix: vec![0],
                    range: (1, 1)
                },
                CanonicalBox {
                    prefix: vec![1],
                    range: (0, 0)
                },
                CanonicalBox {
                    prefix: vec![1, 1],
                    range: (0, 1)
                },
            ]
        );
    }

    #[test]
    fn example_12_open_interval_normalized() {
        // Paper: I = (⟨10,50,100⟩, ⟨20,10,50⟩) over D = {1..1000}; we store
        // the closed normalization [⟨10,50,101⟩, ⟨20,10,49⟩] (ranks −1).
        let sizes = [1000usize, 1000, 1000];
        let i = FInterval {
            lo: vec![9, 49, 100],
            hi: vec![19, 9, 48],
        };
        let boxes = box_decomposition(&i, &sizes);
        assert_eq!(
            boxes,
            vec![
                // Bℓ3 = ⟨10, 50, (100, ⊤]⟩
                CanonicalBox {
                    prefix: vec![9, 49],
                    range: (100, 999)
                },
                // Bℓ2 = ⟨10, (50, ⊤]⟩
                CanonicalBox {
                    prefix: vec![9],
                    range: (50, 999)
                },
                // B1 = ⟨(10, 20)⟩
                CanonicalBox {
                    prefix: vec![],
                    range: (10, 18)
                },
                // Br2 = ⟨20, [⊥, 10)⟩
                CanonicalBox {
                    prefix: vec![19],
                    range: (0, 8)
                },
                // Br3 = ⟨20, 10, [⊥, 50)⟩
                CanonicalBox {
                    prefix: vec![19, 9],
                    range: (0, 48)
                },
            ]
        );
    }

    #[test]
    fn example_12_shared_prefix_single_box() {
        // I' = [⟨10,50,100⟩, ⟨10,50,200⟩): closed normalization
        // [⟨10,50,100⟩, ⟨10,50,199⟩] → single box ⟨10,50,[100,200)⟩.
        let sizes = [1000usize, 1000, 1000];
        let i = FInterval {
            lo: vec![9, 49, 99],
            hi: vec![9, 49, 198],
        };
        let boxes = box_decomposition(&i, &sizes);
        assert_eq!(
            boxes,
            vec![CanonicalBox {
                prefix: vec![9, 49],
                range: (99, 198)
            }]
        );
    }

    #[test]
    fn unit_interval_single_unit_box() {
        let sizes = [3usize, 3];
        let i = FInterval {
            lo: vec![1, 2],
            hi: vec![1, 2],
        };
        let boxes = box_decomposition(&i, &sizes);
        assert_eq!(
            boxes,
            vec![CanonicalBox {
                prefix: vec![1],
                range: (2, 2)
            }]
        );
        assert!(boxes[0].contains(&[1, 2]));
        assert!(!boxes[0].contains(&[1, 1]));
    }

    /// Lemma 1: the boxes partition the interval, are lexicographically
    /// ordered, and number at most 2µ − 1. Exhaustive over small grids.
    #[test]
    fn lemma_1_invariants_exhaustive() {
        for sizes in [vec![2usize, 2], vec![3, 2, 2], vec![2, 3, 2], vec![4, 1, 3]] {
            let full = FInterval::full(&sizes).unwrap();
            let all_points = points_of_interval(&full, &sizes);
            let n = all_points.len();
            for a in 0..n {
                for b in a..n {
                    let i = FInterval {
                        lo: all_points[a].clone(),
                        hi: all_points[b].clone(),
                    };
                    let boxes = box_decomposition(&i, &sizes);
                    let mu = sizes.len();
                    assert!(boxes.len() < 2 * mu, "too many boxes");
                    // Partition check.
                    let mut covered: Vec<Vec<usize>> = Vec::new();
                    for bx in &boxes {
                        assert!(!bx.is_empty());
                        covered.extend(points_of_box(bx, &sizes));
                    }
                    let mut expected = points_of_interval(&i, &sizes);
                    let mut got = covered.clone();
                    expected.sort();
                    got.sort();
                    assert_eq!(got, expected, "boxes must partition [{a},{b}]");
                    // Order check: concatenated box points are sorted.
                    for w in covered.windows(2) {
                        assert!(
                            lex_cmp_ranks(&w[0], &w[1]) == Ordering::Less,
                            "boxes must be ordered and disjoint"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn boxlist_refill_matches_vec_decomposition() {
        let sizes = [3usize, 2, 2];
        let full = FInterval::full(&sizes).unwrap();
        let all_points = points_of_interval(&full, &sizes);
        let mut list = BoxList::new();
        for a in 0..all_points.len() {
            for b in a..all_points.len() {
                let i = FInterval {
                    lo: all_points[a].clone(),
                    hi: all_points[b].clone(),
                };
                let vec_boxes = box_decomposition(&i, &sizes);
                box_decomposition_ranks(&i.lo, &i.hi, &sizes, &mut list);
                assert_eq!(list.as_slice(), &vec_boxes[..], "[{a},{b}]");
                assert_eq!(list.len(), vec_boxes.len());
            }
        }
        list.clear();
        assert!(list.is_empty());
    }

    #[test]
    fn succ_pred_roundtrip() {
        let sizes = [2usize, 3];
        let p = vec![0, 2];
        let s = succ(&p, &sizes).unwrap();
        assert_eq!(s, vec![1, 0]);
        assert_eq!(pred(&s, &sizes).unwrap(), p);
        assert!(succ(&[1, 2], &sizes).is_none());
        assert!(pred(&[0, 0], &sizes).is_none());
    }

    #[test]
    fn interval_contains() {
        let i = FInterval {
            lo: vec![0, 1],
            hi: vec![2, 0],
        };
        assert!(i.contains(&[0, 1]));
        assert!(i.contains(&[1, 5]));
        assert!(i.contains(&[2, 0]));
        assert!(!i.contains(&[0, 0]));
        assert!(!i.contains(&[2, 1]));
    }

    // Each of these read past or short of a tuple in release while the
    // checks were debug-only: `[1]` compared equal to `[1, 0]`, and a
    // longer `hi` or `sizes` decomposed the interval `lo` spans.
    #[test]
    #[should_panic(expected = "rank tuples of different lengths")]
    fn comparing_rank_tuples_of_different_lengths_panics() {
        let _ = lex_cmp_ranks(&[1], &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "interval endpoints of different lengths")]
    fn decomposing_endpoints_of_different_lengths_panics() {
        box_decomposition_ranks(&[0], &[1, 2], &[3, 3], &mut BoxList::new());
    }

    #[test]
    #[should_panic(expected = "one domain size per free variable")]
    fn decomposing_over_a_wider_grid_panics() {
        box_decomposition_ranks(&[0], &[1], &[3, 3], &mut BoxList::new());
    }

    #[test]
    #[should_panic(expected = "interval endpoints out of order")]
    fn decomposing_an_inverted_interval_panics() {
        box_decomposition_ranks(&[1, 2], &[1, 0], &[3, 3], &mut BoxList::new());
    }

    #[test]
    fn empty_domain_has_no_full_interval() {
        assert!(FInterval::full(&[2, 0, 3]).is_none());
        assert!(FInterval::full(&[1]).is_some());
    }
}
