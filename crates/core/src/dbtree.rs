//! The delay-balanced tree (§4.3, step 1).
//!
//! An annotated binary tree over f-intervals: the root holds the full grid
//! `D_f`; a node at level `ℓ` with `T(I(w)) ≥ τ_ℓ = τ / 2^{ℓ(1−1/α)}` is
//! split at the Algorithm 1 point `β(w)` into `[a, pred(β)]` and
//! `[succ(β), b]` (the split point itself is handled at the node, cf.
//! Algorithm 2 line 11); nodes below the threshold are leaves. Lemma 4
//! bounds the depth by `O(log T)` because `T` halves at every level while
//! the threshold decays strictly slower.

use crate::cost::{CostEstimator, PrefixCost};
use crate::fbox::{box_decomposition_ranks, lex_cmp_ranks, pred, succ, BoxList, FInterval};
use crate::split::{split_interval, split_interval_midpoint};
use cqc_common::heap::HeapSize;
use cqc_common::metrics::{self, BuildPhase};
use cqc_common::util::approx_ge;
use std::cmp::Ordering;
use std::time::Instant;

/// Hard cap on tree depth; reaching it indicates a bug in the halving
/// invariant (Prop. 8), not a legitimate instance.
const MAX_LEVEL: u16 = 512;

/// "No child" in the `left`/`right` columns.
const NO_CHILD: u32 = u32::MAX;
/// Fills a leaf's `β` slot in the rank arena (no rank reaches it).
const NO_BETA: usize = usize::MAX;

/// One node of the delay-balanced tree, borrowed from the flat columns.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'a> {
    /// Inclusive lower endpoint of the node's f-interval (ranks).
    pub lo: &'a [usize],
    /// Inclusive upper endpoint of the node's f-interval (ranks).
    pub hi: &'a [usize],
    /// Algorithm 1 split point; `None` for leaves.
    pub beta: Option<&'a [usize]>,
    /// Left child (covers `[lo, pred(β)]`).
    pub left: Option<u32>,
    /// Right child (covers `[succ(β), hi]`).
    pub right: Option<u32>,
    /// Depth (root = 0).
    pub level: u16,
    /// `T(I(w))` at construction time (kept for invariant checks and
    /// statistics).
    pub t_value: f64,
}

impl NodeRef<'_> {
    /// The node's f-interval as an owned value (off the serve path).
    pub fn interval(&self) -> FInterval {
        FInterval {
            lo: self.lo.to_vec(),
            hi: self.hi.to_vec(),
        }
    }
}

/// The delay-balanced tree, immutable after build.
///
/// Nodes live in parallel columns indexed by node id (0 is the root; ids
/// follow the left-first pre-order of construction). The rank arena holds
/// `lo | hi | β` per node at stride `3µ`; read nodes through
/// [`DelayBalancedTree::node`].
#[derive(Debug)]
pub struct DelayBalancedTree {
    ranks: Vec<usize>,
    left: Vec<u32>,
    right: Vec<u32>,
    level: Vec<u16>,
    t_value: Vec<f64>,
    mu: usize,
    /// Maximum node level.
    depth: u16,
    /// Maximum level of a node with a split point (`None`: the root is a
    /// leaf). Heavy pairs exist at internal nodes only, so the threshold
    /// of this level is the smallest one any pair is ever held against.
    deepest_internal: Option<u16>,
    /// Count-index probes the build spent (deterministic work count).
    count_probes: u64,
    /// The delay knob τ.
    pub tau: f64,
    /// The slack α of the cover.
    pub alpha: f64,
}

/// `τ_ℓ = τ / 2^{ℓ(1−1/α)}`.
pub fn tau_level(tau: f64, alpha: f64, level: u16) -> f64 {
    tau / 2f64.powf(f64::from(level) * (1.0 - 1.0 / alpha))
}

/// Which split-point rule the tree uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Splitter {
    /// Algorithm 1: cost-balanced splits with the Prop. 8 `T/2` guarantee.
    #[default]
    Balanced,
    /// Ablation baseline: grid midpoints (no balance guarantee).
    Midpoint,
}

impl DelayBalancedTree {
    /// Builds the tree for the given cost oracle and threshold `τ ≥ 1`.
    ///
    /// Returns `None` when some free variable has an empty active domain
    /// (the view result is empty for every access request).
    ///
    /// # Panics
    ///
    /// Panics if `tau < 1`.
    pub fn build(est: &CostEstimator, tau: f64) -> Option<DelayBalancedTree> {
        DelayBalancedTree::build_with_splitter(est, tau, Splitter::Balanced)
    }

    /// Builds the tree with an explicit split rule (the `Midpoint` variant
    /// exists for the EXP-11 ablation; production code uses
    /// [`DelayBalancedTree::build`]).
    ///
    /// With the midpoint rule the `T`-halving guarantee is lost, so the
    /// construction additionally stops when an interval becomes a unit —
    /// termination then follows from the strict shrinkage of intervals.
    pub fn build_with_splitter(
        est: &CostEstimator,
        tau: f64,
        splitter: Splitter,
    ) -> Option<DelayBalancedTree> {
        assert!(tau >= 1.0, "τ must be at least 1");
        let t_build = Instant::now();
        let probes_before = metrics::snapshot().count_probes;
        let alpha = est.alpha();
        let sizes = est.sizes();
        let root_interval = FInterval::full(&sizes)?;

        let mut tree = DelayBalancedTree {
            ranks: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            level: Vec::new(),
            t_value: Vec::new(),
            mu: sizes.len(),
            depth: 0,
            deepest_internal: None,
            count_probes: 0,
            tau,
            alpha,
        };
        // Scratch shared by every node: the interval's boxes, their `T`s
        // (summed for the leaf test, then handed to Algorithm 1), the
        // Lemma 3 prefix oracle and the split point.
        let mut boxes = BoxList::new();
        let mut t_of: Vec<f64> = Vec::new();
        let mut prefix_cost = PrefixCost::new(est);
        let mut beta: Vec<usize> = Vec::with_capacity(sizes.len());
        // Work stack entries: (interval, level, parent slot), where the
        // slot is `(parent node, is_left_child)`.
        type Slot = Option<(u32, bool)>;
        let mut stack: Vec<(FInterval, u16, Slot)> = vec![(root_interval, 0, None)];

        while let Some((interval, level, slot)) = stack.pop() {
            assert!(level < MAX_LEVEL, "delay-balanced tree too deep (bug)");
            box_decomposition_ranks(&interval.lo, &interval.hi, &sizes, &mut boxes);
            t_of.clear();
            t_of.extend(boxes.as_slice().iter().map(|b| est.t_box(b)));
            let t: f64 = t_of.iter().sum();
            let idx = u32::try_from(tree.len())
                .ok()
                .filter(|&i| i != NO_CHILD)
                .expect("node ids fit in u32");
            if let Some((parent, is_left)) = slot {
                let side = if is_left {
                    &mut tree.left
                } else {
                    &mut tree.right
                };
                side[parent as usize] = idx;
            }
            let threshold = tau_level(tau, alpha, level);
            // Leaf when T(I(w)) < τ_ℓ (zero-cost intervals are always
            // leaves; they cannot be split).
            if t <= 0.0 || !approx_ge(t, threshold) {
                tree.push(&interval, None, level, t);
                continue;
            }
            match splitter {
                Splitter::Balanced => {
                    split_interval(&mut prefix_cost, &sizes, boxes.as_slice(), &t_of, &mut beta);
                }
                Splitter::Midpoint => beta = split_interval_midpoint(est, &sizes, &interval),
            }
            debug_assert!(
                interval.contains(&beta),
                "split point must lie in the interval"
            );
            let left =
                pred(&beta, &sizes).filter(|p| lex_cmp_ranks(&interval.lo, p) != Ordering::Greater);
            let right =
                succ(&beta, &sizes).filter(|s| lex_cmp_ranks(s, &interval.hi) != Ordering::Greater);
            tree.push(&interval, Some(&beta[..]), level, t);
            // Push right first so the left child is processed (and thus
            // numbered) first: node ids follow the left-first pre-order,
            // which the dictionary build relies on to emit its per-node
            // runs in id order.
            if let Some(hi_lo) = right {
                let child = FInterval {
                    lo: hi_lo,
                    hi: interval.hi.clone(),
                };
                stack.push((child, level + 1, Some((idx, false))));
            }
            if let Some(lo_hi) = left {
                let child = FInterval {
                    lo: interval.lo,
                    hi: lo_hi,
                };
                stack.push((child, level + 1, Some((idx, true))));
            }
        }

        tree.ranks.shrink_to_fit();
        tree.left.shrink_to_fit();
        tree.right.shrink_to_fit();
        tree.level.shrink_to_fit();
        tree.t_value.shrink_to_fit();
        tree.count_probes = metrics::snapshot().count_probes - probes_before;
        metrics::record_build_phase(BuildPhase::Tree, t_build.elapsed().as_nanos() as u64);
        Some(tree)
    }

    /// Appends a childless node (build only; children are linked when they
    /// are numbered).
    fn push(&mut self, interval: &FInterval, beta: Option<&[usize]>, level: u16, t: f64) {
        self.ranks.extend_from_slice(&interval.lo);
        self.ranks.extend_from_slice(&interval.hi);
        match beta {
            Some(b) => self.ranks.extend_from_slice(b),
            None => self.ranks.extend(std::iter::repeat(NO_BETA).take(self.mu)),
        }
        self.left.push(NO_CHILD);
        self.right.push(NO_CHILD);
        self.level.push(level);
        self.t_value.push(t);
        self.depth = self.depth.max(level);
        if beta.is_some() {
            self.deepest_internal = self.deepest_internal.max(Some(level));
        }
    }

    /// Node `w`.
    pub fn node(&self, w: u32) -> NodeRef<'_> {
        let (i, mu) = (w as usize, self.mu);
        let (lo, rest) = self.ranks[i * 3 * mu..(i + 1) * 3 * mu].split_at(mu);
        let (hi, beta) = rest.split_at(mu);
        let child = |c: u32| (c != NO_CHILD).then_some(c);
        NodeRef {
            lo,
            hi,
            beta: (beta[0] != NO_BETA).then_some(beta),
            left: child(self.left[i]),
            right: child(self.right[i]),
            level: self.level[i],
            t_value: self.t_value[i],
        }
    }

    /// All nodes in id order (node `w` is the `w`-th item).
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeRef<'_>> {
        (0..self.len() as u32).map(|w| self.node(w))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.level.len()
    }

    /// `true` when the tree has no nodes (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.level.is_empty()
    }

    /// The root node id.
    pub fn root(&self) -> u32 {
        0
    }

    /// The level threshold for a node.
    pub fn threshold_of(&self, node: u32) -> f64 {
        tau_level(self.tau, self.alpha, self.level[node as usize])
    }

    /// Maximum node level.
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// Maximum level of an internal node (one with a split point); `None`
    /// when the root is a leaf.
    pub fn deepest_internal_level(&self) -> Option<u16> {
        self.deepest_internal
    }

    /// Count-index probes spent building the tree: a deterministic work
    /// count (the same instance always reports the same number).
    pub fn build_count_probes(&self) -> u64 {
        self.count_probes
    }
}

impl HeapSize for DelayBalancedTree {
    fn heap_bytes(&self) -> usize {
        self.ranks.heap_bytes()
            + self.left.heap_bytes()
            + self.right.heap_bytes()
            + self.level.heap_bytes()
            + self.t_value.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::tests::running_estimator;

    /// Figure 3: the delay-balanced tree of the running example at τ = 4
    /// has exactly five nodes with the depicted intervals and split points.
    #[test]
    fn figure_3_tree_shape() {
        let est = running_estimator();
        let tree = DelayBalancedTree::build(&est, 4.0).unwrap();
        assert_eq!(tree.len(), 5);

        let root = tree.node(0);
        assert_eq!(est.ranks_to_values(root.lo), vec![1, 1, 1]);
        assert_eq!(est.ranks_to_values(root.hi), vec![2, 2, 2]);
        assert_eq!(est.ranks_to_values(root.beta.unwrap()), vec![1, 1, 2]);
        assert!((root.t_value - 10.5605).abs() < 1e-3);

        // Left child r_l = [⟨1,1,1⟩, ⟨1,1,1⟩], a leaf.
        let rl = tree.node(root.left.unwrap());
        assert_eq!(est.ranks_to_values(rl.lo), vec![1, 1, 1]);
        assert_eq!(est.ranks_to_values(rl.hi), vec![1, 1, 1]);
        assert!(rl.beta.is_none());
        assert!((rl.t_value - 6.0f64.sqrt()).abs() < 1e-9);

        // Right child r_r = [⟨1,2,1⟩, ⟨2,2,2⟩] with β = (1,2,2).
        let rr = tree.node(root.right.unwrap());
        assert_eq!(est.ranks_to_values(rr.lo), vec![1, 2, 1]);
        assert_eq!(est.ranks_to_values(rr.hi), vec![2, 2, 2]);
        assert_eq!(est.ranks_to_values(rr.beta.unwrap()), vec![1, 2, 2]);

        // Its children r_rl = [⟨1,2,1⟩,⟨1,2,1⟩] and r_rr = [⟨2,1,1⟩,⟨2,2,2⟩]
        // are leaves (T < τ_2 = 2).
        let rrl = tree.node(rr.left.unwrap());
        assert_eq!(est.ranks_to_values(rrl.lo), vec![1, 2, 1]);
        assert_eq!(est.ranks_to_values(rrl.hi), vec![1, 2, 1]);
        assert!(rrl.beta.is_none());
        let rrr = tree.node(rr.right.unwrap());
        assert_eq!(est.ranks_to_values(rrr.lo), vec![2, 1, 1]);
        assert_eq!(est.ranks_to_values(rrr.hi), vec![2, 2, 2]);
        assert!(rrr.beta.is_none());
    }

    /// Lemma 4 item 1 on the running example: every child's T is at most
    /// half its parent's.
    #[test]
    fn t_halves_along_edges() {
        let est = running_estimator();
        for tau in [1.0, 2.0, 4.0, 8.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            for node in tree.nodes() {
                for child in [node.left, node.right].into_iter().flatten() {
                    let ct = tree.node(child).t_value;
                    assert!(
                        ct <= node.t_value / 2.0 + 1e-9,
                        "child T {ct} > parent T {} / 2 (tau {tau})",
                        node.t_value
                    );
                }
            }
        }
    }

    /// Threshold bookkeeping: internal nodes satisfy T ≥ τ_ℓ, leaves with
    /// children slots empty satisfy T < τ_ℓ or are unsplittable points.
    #[test]
    fn threshold_invariants() {
        let est = running_estimator();
        let tree = DelayBalancedTree::build(&est, 4.0).unwrap();
        for (i, node) in tree.nodes().enumerate() {
            let thr = tree.threshold_of(i as u32);
            if node.beta.is_some() {
                assert!(node.t_value >= thr - 1e-9);
            } else {
                assert!(node.t_value < thr);
            }
        }
    }

    /// τ_ℓ: at α = 2 the threshold decays by √2 per level; at α = 1 it is
    /// constant.
    #[test]
    fn tau_level_formula() {
        assert!((tau_level(4.0, 2.0, 0) - 4.0).abs() < 1e-12);
        assert!((tau_level(4.0, 2.0, 1) - 4.0 / 2f64.sqrt()).abs() < 1e-12);
        assert!((tau_level(4.0, 2.0, 2) - 2.0).abs() < 1e-12);
        for l in 0..10 {
            assert!((tau_level(7.0, 1.0, l) - 7.0).abs() < 1e-12);
        }
    }

    /// A huge τ makes the root a leaf (the structure degenerates to direct
    /// evaluation).
    #[test]
    fn huge_tau_single_leaf() {
        let est = running_estimator();
        let tree = DelayBalancedTree::build(&est, 1e6).unwrap();
        assert_eq!(tree.len(), 1);
        assert!(tree.node(0).beta.is_none());
    }

    /// τ = 1 with α = 2: thresholds decay, the tree splits down to points.
    #[test]
    fn tau_one_fully_splits() {
        let est = running_estimator();
        let tree = DelayBalancedTree::build(&est, 1.0).unwrap();
        assert!(tree.len() >= 5);
        assert!(tree.depth() >= 2);
        // Every leaf has T < its threshold.
        for (i, n) in tree.nodes().enumerate() {
            if n.beta.is_none() {
                assert!(n.t_value < tree.threshold_of(i as u32));
            }
        }
    }
}
