//! The delay-balanced tree (§4.3, step 1).
//!
//! An annotated binary tree over f-intervals: the root holds the full grid
//! `D_f`; a node at level `ℓ` with `T(I(w)) ≥ τ_ℓ = τ / 2^{ℓ(1−1/α)}` is
//! split at the Algorithm 1 point `β(w)` into `[a, pred(β)]` and
//! `[succ(β), b]` (the split point itself is handled at the node, cf.
//! Algorithm 2 line 11); nodes below the threshold are leaves. Lemma 4
//! bounds the depth by `O(log T)` because `T` halves at every level while
//! the threshold decays strictly slower.
//!
//! Only the split points are stored, and only internal nodes have rows.
//! The topology is implicit, in level order (Jacobson's binary-marked
//! tree): the root is slot 0, the internal node of rank `r` owns slots
//! `2r + 1` (left child) and `2r + 2` (right child), and one bit per slot
//! says whether it holds an internal node. Whether a child slot holds a
//! node at all is not stored: it follows from `β`. Every reader walks
//! top-down, and a descent re-derives the rest: a left child keeps its
//! parent's lower endpoint and ends at `pred(β(parent))`, a right child
//! starts at `succ(β(parent))` and keeps the upper endpoint, so a
//! [`Cursor`] that remembers *which ancestors* its two endpoints come from
//! recovers `I(w)` from two `β` rows (docs/ARCHITECTURE.md, "Theorem 1
//! memory layout").

use crate::cost::{CostEstimator, PrefixCost};
use crate::fbox::{box_decomposition_ranks, BoxList, FInterval};
use crate::split::split_interval;
use cqc_common::heap::HeapSize;
use cqc_common::metrics;
use cqc_common::packed::{Packed, RankedBits};
use cqc_common::util::{approx_ge, partition_point};
use cqc_storage::domain::{rank_tuple_pred, rank_tuple_succ};
use std::collections::VecDeque;

/// Hard cap on tree depth; reaching it indicates a bug in the halving
/// invariant (Prop. 8), not a legitimate instance.
const MAX_LEVEL: u16 = 512;

/// An endpoint a [`Cursor`] inherited from the grid rather than from an
/// ancestor (and, during the build, the slot of a parent it derives
/// children from). A cursor's value only: no column stores it.
const NO_NODE: u32 = u32::MAX;

/// The root's cursor.
const ROOT: Cursor = Cursor {
    node: 0,
    level: 0,
    lo_from: NO_NODE,
    hi_from: NO_NODE,
};

/// A position in a top-down walk: the node's slot, and where its interval
/// comes from. `I(w) = [succ(β(lo_from)), pred(β(hi_from))]`, with the grid
/// minimum / maximum standing in for an endpoint no ancestor cut. Both
/// ancestors are internal, so the cursor holds their internal ranks: the
/// rows their split points are stored at.
///
/// Obtained from [`DelayBalancedTree::root`] and [`DelayBalancedTree::node`]
/// only, so the two ancestors are always the right ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// The node's slot, its id: 0 for the root, `2r + 1` and `2r + 2` for
    /// the left and right child of the internal node of rank `r`.
    pub node: u32,
    /// Depth (root = 0).
    pub level: u16,
    /// The internal rank of the nearest ancestor this node lies to the
    /// right of.
    lo_from: u32,
    /// The internal rank of the nearest ancestor this node lies to the
    /// left of.
    hi_from: u32,
}

/// What [`DelayBalancedTree::node`] finds at a cursor besides the interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// The node's internal rank — its row in the `β` column — or `None`
    /// for a leaf (no split point, no row).
    pub internal: Option<u32>,
    /// Left child (covers `[lo, pred(β)]`).
    pub left: Option<Cursor>,
    /// Right child (covers `[succ(β), hi]`).
    pub right: Option<Cursor>,
}

/// The delay-balanced tree, immutable after build.
///
/// Node ids are level-order slots: the root is slot 0 and the internal
/// node of rank `r` (the internal nodes in slots before it) owns slots
/// `2r + 1` and `2r + 2` for its children, so no child id is stored. Per
/// slot (`2I + 1` of them for `I` internal nodes): one bit, set when the
/// slot holds an internal node. Per internal node, at its rank: one `β`
/// row of `µ` ranks, packed at the width its largest value needs
/// (docs/ARCHITECTURE.md, "Packed integer columns"). A leaf has no row,
/// and a child slot with no node is told apart from a leaf by `β`: the
/// left child exists iff `β ≠ lo`, the right one iff `β ≠ hi`. Intervals,
/// levels and children are derived by the walk; see [`Cursor`].
#[derive(Debug)]
pub struct DelayBalancedTree {
    /// One bit per slot, set where the slot holds an internal node; its
    /// rank is that node's row.
    internal: RankedBits,
    /// Split points at stride `µ`, one row per internal node.
    beta: Packed,
    /// The grid `D_f` the root spans (`µ` domain sizes).
    sizes: Vec<usize>,
    /// Nodes (internal and leaves), counted at build.
    nodes: usize,
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

/// An internal node the build has ranked but whose children it has not
/// built yet: what their cursors inherit, and which of them exist (12
/// bytes, where its two child cursors would take 32).
#[derive(Debug, Clone, Copy)]
struct Unexpanded {
    lo_from: u32,
    hi_from: u32,
    level: u16,
    left: bool,
    right: bool,
}

/// The cursor of the next child slot that holds a node, in slot order:
/// `pending`'s front is the internal node of rank `expanding`, which is
/// popped once its children are handed out. `None` when no node is left.
fn next_child(pending: &mut VecDeque<Unexpanded>, expanding: &mut u32) -> Option<Cursor> {
    while let Some(p) = pending.front_mut() {
        let rank = *expanding;
        // The parent's own slot is not needed for its children's.
        let parent = Cursor {
            node: NO_NODE,
            level: p.level,
            lo_from: p.lo_from,
            hi_from: p.hi_from,
        };
        if std::mem::take(&mut p.left) {
            return Some(parent.left_child(rank));
        }
        let right = p.right;
        pending.pop_front();
        *expanding += 1;
        if right {
            return Some(parent.right_child(rank));
        }
    }
    None
}

/// `τ_ℓ = τ / 2^{ℓ(1−1/α)}`.
pub fn tau_level(tau: f64, alpha: f64, level: u16) -> f64 {
    tau / 2f64.powf(f64::from(level) * (1.0 - 1.0 / alpha))
}

impl Node {
    /// `true` when the node has no split point.
    pub fn is_leaf(&self) -> bool {
        self.internal.is_none()
    }
}

impl Cursor {
    /// The left child's cursor, for a node of internal rank `rank`: slot
    /// `2·rank + 1`, same lower endpoint, upper endpoint `pred(β(w))`.
    fn left_child(self, rank: u32) -> Cursor {
        Cursor {
            node: 2 * rank + 1,
            level: self.level + 1,
            lo_from: self.lo_from,
            hi_from: rank,
        }
    }

    /// The right child's cursor, for a node of internal rank `rank`: slot
    /// `2·rank + 2`, lower endpoint `succ(β(w))`, same upper endpoint.
    fn right_child(self, rank: u32) -> Cursor {
        Cursor {
            node: 2 * rank + 2,
            level: self.level + 1,
            lo_from: rank,
            hi_from: self.hi_from,
        }
    }
}

/// Writes `I(c)`'s endpoints into the caller's scratch (`µ` ranks each):
/// `succ` / `pred` of the two ancestors' split points, which `beta_of`
/// writes from an internal rank, or the grid's own ends.
///
/// # Panics
///
/// Panics, in release builds too, when an ancestor's split point has no
/// successor (or predecessor) on the grid: its `succ` / `pred` would leave
/// the endpoint at the grid's end, a wrong interval. A tree whose columns
/// agree never gets there: a child exists only where that step does.
#[inline]
fn endpoints(
    c: Cursor,
    sizes: &[usize],
    lo: &mut [usize],
    hi: &mut [usize],
    beta_of: impl Fn(u32, &mut [usize]),
) {
    if c.lo_from == NO_NODE {
        lo.fill(0);
    } else {
        beta_of(c.lo_from, lo);
        let inside = rank_tuple_succ(lo, sizes);
        assert!(
            inside,
            "a right child's parent splits below the grid maximum"
        );
    }
    if c.hi_from == NO_NODE {
        for (h, &n) in hi.iter_mut().zip(sizes) {
            *h = n - 1;
        }
    } else {
        beta_of(c.hi_from, hi);
        let inside = rank_tuple_pred(hi, sizes);
        assert!(
            inside,
            "a left child's parent splits above the grid minimum"
        );
    }
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
        DelayBalancedTree::build_observed(est, tau, |_, _, _| {})
    }

    /// [`DelayBalancedTree::build`], reporting each node as it is
    /// numbered: `observe(cursor, I(w), T(I(w)))` — what the build knew and
    /// the stored tree no longer holds.
    fn build_observed(
        est: &CostEstimator,
        tau: f64,
        mut observe: impl FnMut(Cursor, &FInterval, f64),
    ) -> Option<DelayBalancedTree> {
        assert!(tau >= 1.0, "τ must be at least 1");
        let probes_before = metrics::snapshot().count_probes;
        let sizes = est.sizes();
        let mu = sizes.len();
        let alpha = est.alpha();
        // The one endpoint pair every node's interval is derived into.
        let mut interval = FInterval::full(&sizes)?;

        // The columns as the build writes them, packed once every node is
        // numbered: a bit per slot (64 to a word), a `β` row per internal
        // node.
        let mut internal: Vec<u64> = Vec::new();
        let mut beta_col: Vec<u64> = Vec::new();
        let (mut nodes, mut ranks) = (0usize, 0u32);
        let (mut depth, mut deepest_internal) = (0, None);
        // Scratch shared by every node: the interval's boxes, their `T`s
        // (summed for the leaf test, then handed to Algorithm 1), the
        // Lemma 3 prefix oracle and the split point.
        let mut boxes = BoxList::new();
        let mut t_of: Vec<f64> = Vec::new();
        let mut prefix_cost = PrefixCost::new(est);
        let mut beta: Vec<usize> = Vec::with_capacity(mu);
        // Internal nodes whose children are not built yet, of ranks
        // `expanding..ranks`. Children are built in slot order — rank `r`'s
        // left child `2r + 1`, its right child `2r + 2`, then rank
        // `r + 1`'s — so the internal nodes among them are ranked, and
        // their rows written, in slot order too.
        let mut pending: VecDeque<Unexpanded> = VecDeque::new();
        let mut expanding = 0u32;
        let mut next = Some(ROOT);

        while let Some(c) = next {
            assert!(c.level < MAX_LEVEL, "delay-balanced tree too deep (bug)");
            nodes += 1;
            endpoints(c, &sizes, &mut interval.lo, &mut interval.hi, |w, out| {
                let row = &beta_col[w as usize * mu..][..mu];
                for (o, &b) in out.iter_mut().zip(row) {
                    *o = b as usize;
                }
            });
            box_decomposition_ranks(&interval.lo, &interval.hi, &sizes, &mut boxes);
            t_of.clear();
            t_of.extend(boxes.as_slice().iter().map(|b| est.t_box(b)));
            let t: f64 = t_of.iter().sum();
            observe(c, &interval, t);
            depth = depth.max(c.level);
            // Leaf when T(I(w)) < τ_ℓ (zero-cost intervals are always
            // leaves; they cannot be split): a clear bit and no row.
            let leaf = t <= 0.0 || !approx_ge(t, tau_level(tau, alpha, c.level));
            if !leaf {
                ranks += 1;
                assert!(ranks < NO_NODE / 2, "slots fit in u32");
                let slot = c.node as usize;
                internal.resize(slot / 64 + 1, 0);
                internal[slot / 64] |= 1 << (slot % 64);
                split_interval(&mut prefix_cost, &sizes, boxes.as_slice(), &t_of, &mut beta);
                assert!(
                    interval.contains(&beta),
                    "split point must lie in the interval"
                );
                beta_col.extend(beta.iter().map(|&r| r as u64));
                deepest_internal = deepest_internal.max(Some(c.level));
                // `[lo, pred(β)]` and `[succ(β), hi]` are non-empty iff β
                // is not that endpoint; `node` reads presence the same way.
                pending.push_back(Unexpanded {
                    lo_from: c.lo_from,
                    hi_from: c.hi_from,
                    level: c.level,
                    left: beta != interval.lo,
                    right: beta != interval.hi,
                });
            }
            next = next_child(&mut pending, &mut expanding);
        }
        drop(pending);
        let slots = 2 * ranks as usize + 1;

        Some(DelayBalancedTree {
            internal: RankedBits::new(
                (0..slots).map(|s| internal.get(s / 64).is_some_and(|w| w >> (s % 64) & 1 == 1)),
            ),
            beta: Packed::from_slice(&beta_col),
            sizes,
            nodes,
            depth,
            deepest_internal,
            count_probes: metrics::snapshot().count_probes - probes_before,
            tau,
            alpha,
        })
    }

    /// The root's cursor.
    pub fn root(&self) -> Cursor {
        ROOT
    }

    /// Visits the node under `c`: writes `I(w)`'s inclusive endpoints into
    /// the caller's scratch (`µ` ranks each) and returns its internal rank
    /// and the cursors of its children. No allocation.
    #[inline]
    pub fn node(&self, c: Cursor, lo: &mut [usize], hi: &mut [usize]) -> Node {
        self.endpoints(c, lo, hi);
        let Some(rank) = self.internal.rank_of_set(c.node as usize) else {
            return Node {
                internal: None,
                left: None,
                right: None,
            };
        };
        let row = rank * self.sizes.len();
        // The left child `[lo, pred(β)]` is empty iff `β = lo`, the right
        // child `[succ(β), hi]` iff `β = hi`.
        let (mut left, mut right) = (false, false);
        for (i, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
            let b = self.beta.get(row + i) as usize;
            left |= b != l;
            right |= b != h;
        }
        let rank = rank as u32;
        Node {
            internal: Some(rank),
            left: left.then(|| c.left_child(rank)),
            right: right.then(|| c.right_child(rank)),
        }
    }

    /// `true` when node `w` has no split point.
    #[inline]
    pub fn is_leaf(&self, w: u32) -> bool {
        !self.internal.get(w as usize)
    }

    /// Node `w`'s internal rank (its row), `None` for a leaf.
    pub fn internal_rank(&self, w: u32) -> Option<u32> {
        self.internal.rank_of_set(w as usize).map(|r| r as u32)
    }

    /// The slot of the internal node of rank `rank` (off the serve path: a
    /// binary search over the rank directory).
    ///
    /// # Panics
    ///
    /// Panics unless `rank` is below [`DelayBalancedTree::num_internal`].
    pub fn internal_node(&self, rank: u32) -> u32 {
        let rank = rank as usize;
        assert!(
            rank < self.num_internal(),
            "internal rank {rank} of {}",
            self.num_internal()
        );
        // The first slot with more than `rank` internal nodes up to it.
        partition_point(0, self.internal.len(), |w| self.internal.rank(w + 1) > rank) as u32
    }

    /// Node `w`'s parent's slot and whether `w` is its right child; `None`
    /// for the root (off the serve path: slot `w` belongs to the internal
    /// node of rank `(w − 1) / 2`, on side `(w − 1) % 2`).
    pub fn parent(&self, w: u32) -> Option<(u32, bool)> {
        let s = w.checked_sub(1)?;
        Some((self.internal_node(s / 2), s % 2 == 1))
    }

    /// Decodes the `β` row of the internal node of rank `rank` into `out`
    /// (`µ` ranks).
    ///
    /// # Panics
    ///
    /// Panics unless `out` holds `µ` ranks, in release builds too: a longer
    /// one would read into the next row, a shorter one a partial row.
    #[inline]
    pub fn split_point_into(&self, rank: u32, out: &mut [usize]) {
        assert_eq!(out.len(), self.sizes.len(), "a split point has µ ranks");
        let row = rank as usize * self.sizes.len();
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.beta.get(row + i) as usize;
        }
    }

    /// `I(c)`'s endpoints, from the stored split points of its two
    /// ancestors.
    #[inline]
    fn endpoints(&self, c: Cursor, lo: &mut [usize], hi: &mut [usize]) {
        endpoints(c, &self.sizes, lo, hi, |w, out| {
            self.split_point_into(w, out)
        });
    }

    /// Node `w`'s split point as an owned value; `None` for a leaf (off
    /// the serve path).
    pub fn beta(&self, w: u32) -> Option<Vec<usize>> {
        let rank = self.internal_rank(w)?;
        let mut beta = vec![0; self.sizes.len()];
        self.split_point_into(rank, &mut beta);
        Some(beta)
    }

    /// `I(w)` as an owned value (off the serve path).
    pub fn interval(&self, c: Cursor) -> FInterval {
        let mut interval = FInterval {
            lo: vec![0; self.sizes.len()],
            hi: vec![0; self.sizes.len()],
        };
        self.endpoints(c, &mut interval.lo, &mut interval.hi);
        interval
    }

    /// Every node's cursor in ascending slot order, as the build numbered
    /// them: a breadth-first walk from the root.
    pub fn cursors(&self) -> impl Iterator<Item = Cursor> + '_ {
        let mut queue = VecDeque::from([self.root()]);
        let FInterval { mut lo, mut hi } = self.interval(self.root());
        std::iter::from_fn(move || {
            let c = queue.pop_front()?;
            let node = self.node(c, &mut lo, &mut hi);
            queue.extend([node.left, node.right].into_iter().flatten());
            Some(c)
        })
    }

    /// Number of nodes, internal and leaves.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// `true` when the tree has no nodes (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Number of slots, `2I + 1` for `I` internal nodes: ids are below it.
    pub fn num_slots(&self) -> usize {
        self.internal.len()
    }

    /// Number of internal nodes: the rows of the `β` column.
    pub fn num_internal(&self) -> usize {
        self.internal.count_ones()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.len() - self.num_internal()
    }

    /// The threshold `τ_ℓ` nodes at `level` are held against.
    pub fn threshold_of(&self, level: u16) -> f64 {
        tau_level(self.tau, self.alpha, level)
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

    /// Bits per stored `β` rank.
    pub fn beta_width(&self) -> u32 {
        self.beta.width()
    }
}

impl HeapSize for DelayBalancedTree {
    fn heap_bytes(&self) -> usize {
        self.internal.heap_bytes() + self.beta.heap_bytes() + self.sizes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::tests::running_estimator;

    /// `T(I(w))`, recomputed: the tree no longer stores it.
    fn t_at(est: &CostEstimator, tree: &DelayBalancedTree, c: Cursor) -> f64 {
        est.t_interval(&tree.interval(c), &est.sizes())
    }

    /// The children of the node under `c`.
    fn children(tree: &DelayBalancedTree, c: Cursor) -> Node {
        let FInterval { mut lo, mut hi } = tree.interval(c);
        tree.node(c, &mut lo, &mut hi)
    }

    /// Figure 3: the delay-balanced tree of the running example at τ = 4
    /// has exactly five nodes with the depicted intervals and split points.
    #[test]
    fn figure_3_tree_shape() {
        let est = running_estimator();
        let tree = DelayBalancedTree::build(&est, 4.0).unwrap();
        assert_eq!(tree.len(), 5);
        let values = |ranks: &[usize]| est.ranks_to_values(ranks);
        let beta = |c: Cursor| tree.beta(c.node).map(|b| values(&b));

        let r = tree.root();
        let root = tree.interval(r);
        assert_eq!(values(&root.lo), vec![1, 1, 1]);
        assert_eq!(values(&root.hi), vec![2, 2, 2]);
        assert_eq!(beta(r), Some(vec![1, 1, 2]));
        assert!((t_at(&est, &tree, r) - 10.5605).abs() < 1e-3);

        // Left child r_l = [⟨1,1,1⟩, ⟨1,1,1⟩], a leaf.
        let rl = children(&tree, r).left.unwrap();
        let i = tree.interval(rl);
        assert_eq!(values(&i.lo), vec![1, 1, 1]);
        assert_eq!(values(&i.hi), vec![1, 1, 1]);
        assert_eq!((rl.node, rl.level, beta(rl)), (1, 1, None));
        assert_eq!(children(&tree, rl).internal, None);
        assert!((t_at(&est, &tree, rl) - 6.0f64.sqrt()).abs() < 1e-9);

        // Right child r_r = [⟨1,2,1⟩, ⟨2,2,2⟩] with β = (1,2,2).
        let rr = children(&tree, r).right.unwrap();
        let i = tree.interval(rr);
        assert_eq!(values(&i.lo), vec![1, 2, 1]);
        assert_eq!(values(&i.hi), vec![2, 2, 2]);
        assert_eq!((rr.node, rr.level, beta(rr)), (2, 1, Some(vec![1, 2, 2])));

        // Its children r_rl = [⟨1,2,1⟩,⟨1,2,1⟩] and r_rr = [⟨2,1,1⟩,⟨2,2,2⟩]
        // are leaves (T < τ_2 = 2).
        let rrl = children(&tree, rr).left.unwrap();
        let i = tree.interval(rrl);
        assert_eq!(values(&i.lo), vec![1, 2, 1]);
        assert_eq!(values(&i.hi), vec![1, 2, 1]);
        assert_eq!((rrl.node, rrl.level, beta(rrl)), (3, 2, None));
        let rrr = children(&tree, rr).right.unwrap();
        let i = tree.interval(rrr);
        assert_eq!(values(&i.lo), vec![2, 1, 1]);
        assert_eq!(values(&i.hi), vec![2, 2, 2]);
        assert_eq!((rrr.node, rrr.level, beta(rrr)), (4, 2, None));
    }

    /// Lemma 4 item 1 on the running example: every child's T is at most
    /// half its parent's.
    #[test]
    fn t_halves_along_edges() {
        let est = running_estimator();
        for tau in [1.0, 2.0, 4.0, 8.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            for c in tree.cursors() {
                let t = t_at(&est, &tree, c);
                let node = children(&tree, c);
                for child in [node.left, node.right].into_iter().flatten() {
                    let ct = t_at(&est, &tree, child);
                    assert!(
                        ct <= t / 2.0 + 1e-9,
                        "child T {ct} > parent T {t} / 2 (tau {tau})"
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
        for c in tree.cursors() {
            let (t, thr) = (t_at(&est, &tree, c), tree.threshold_of(c.level));
            if tree.is_leaf(c.node) {
                assert!(t < thr);
                let n = children(&tree, c);
                assert!(n.internal.is_none() && n.left.is_none() && n.right.is_none());
            } else {
                assert!(t >= thr - 1e-9);
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
        assert!(tree.is_leaf(0));
        assert_eq!(tree.beta(0), None);
    }

    /// τ = 1 with α = 2: thresholds decay, the tree splits down to points.
    #[test]
    fn tau_one_fully_splits() {
        let est = running_estimator();
        let tree = DelayBalancedTree::build(&est, 1.0).unwrap();
        assert!(tree.len() >= 5);
        assert!(tree.depth() >= 2);
        // Every leaf has T < its threshold.
        for c in tree.cursors() {
            if tree.is_leaf(c.node) {
                assert!(t_at(&est, &tree, c) < tree.threshold_of(c.level));
            }
        }
    }

    /// The running example's tree at τ = 4 with its root's split point overwritten
    /// (the root is internal, its left child is node 1, a leaf).
    fn with_root_split(beta: &[u64]) -> DelayBalancedTree {
        let mut tree = DelayBalancedTree::build(&running_estimator(), 4.0).unwrap();
        let mut rows: Vec<u64> = tree.beta.iter().collect();
        rows[..beta.len()].copy_from_slice(beta);
        tree.beta = Packed::from_slice(&rows);
        tree
    }

    /// A right child whose parent splits at the grid maximum has no lower
    /// endpoint: deriving its interval panics in release builds too,
    /// instead of leaving it at the maximum.
    #[test]
    #[should_panic(expected = "splits below the grid maximum")]
    fn a_right_child_of_a_split_at_the_grid_maximum_panics() {
        let tree = with_root_split(&[1, 1, 1]);
        let right = Cursor {
            node: 2,
            level: 1,
            lo_from: 0,
            hi_from: NO_NODE,
        };
        tree.interval(right);
    }

    /// A left child whose parent splits at the grid minimum has no upper
    /// endpoint: see [`a_right_child_of_a_split_at_the_grid_maximum_panics`].
    #[test]
    #[should_panic(expected = "splits above the grid minimum")]
    fn a_left_child_of_a_split_at_the_grid_minimum_panics() {
        let tree = with_root_split(&[0, 0, 0]);
        tree.interval(tree.root().left_child(0));
    }

    /// `split_point_into` reads exactly `µ` ranks, in release builds too:
    /// one more would be the next row's first.
    #[test]
    #[should_panic(expected = "a split point has µ ranks")]
    fn a_split_point_into_a_longer_buffer_panics() {
        let tree = DelayBalancedTree::build(&running_estimator(), 4.0).unwrap();
        assert!(tree.num_internal() > 1, "a next row to read into");
        tree.split_point_into(0, &mut [0; 4]);
    }

    /// See [`a_split_point_into_a_longer_buffer_panics`]: one fewer would
    /// be a partial row.
    #[test]
    #[should_panic(expected = "a split point has µ ranks")]
    fn a_split_point_into_a_shorter_buffer_panics() {
        let tree = DelayBalancedTree::build(&running_estimator(), 4.0).unwrap();
        tree.split_point_into(0, &mut [0; 2]);
    }

    /// `internal_node` inverts `internal_rank` on every internal slot.
    #[test]
    fn internal_node_inverts_internal_rank() {
        let est = running_estimator();
        for tau in [1.0, 2.0, 4.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            let internal: Vec<u32> = (0..tree.num_slots() as u32)
                .filter(|&w| !tree.is_leaf(w))
                .collect();
            assert_eq!(tree.num_slots(), 2 * internal.len() + 1, "τ={tau}");
            for (rank, &w) in internal.iter().enumerate() {
                assert_eq!(tree.internal_node(rank as u32), w, "τ={tau}");
                assert_eq!(tree.internal_rank(w), Some(rank as u32));
            }
        }
    }

    /// The stored tree is the slot bits and `β` only; the walk must give
    /// back everything the build knew. Over random triangle / star / path
    /// instances (µ = 1, 2, 3) and three τ, the cursor reproduces each
    /// node's slot, level, interval and `T` exactly as the build observed
    /// them, in the build's (ascending slot) order — through every child
    /// shape: both children,
    /// only a left one (`β = hi`), only a right one (`β = lo`), an
    /// internal node with neither, and a tree that is one leaf.
    #[test]
    fn cursor_reproduces_every_node_the_build_saw() {
        use cqc_query::parser::parse_adorned;
        let queries: [(&str, &[&str], &[&str]); 3] = [
            (
                "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
                &["R", "S", "T"],
                &["bbf", "bff", "fff"],
            ),
            (
                "Q(x,a,b,c) :- R(x,a), S(x,b), T(x,c)",
                &["R", "S", "T"],
                &["fbbb", "bbff", "bfff"],
            ),
            (
                "Q(x,y,z) :- R(x,y), S(y,z)",
                &["R", "S"],
                &["bfb", "fbf", "fff"],
            ),
        ];
        // Shapes seen: [both, left only, right only, internal with
        // neither, single-leaf trees].
        let mut shapes = [0usize; 5];
        for (qi, (query, relations, patterns)) in queries.iter().enumerate() {
            for seed in 0..4u64 {
                let mut rng = cqc_workload::rng(seed * 17 + qi as u64);
                let domain = 5 + seed * 4;
                let zipf = cqc_workload::Zipf::new(domain as usize, 1.0);
                let mut db = cqc_storage::Database::new();
                for (ri, name) in relations.iter().enumerate() {
                    db.add(if (ri as u64 + seed) % 2 == 0 {
                        cqc_workload::uniform_relation(&mut rng, name, 2, 40, domain)
                    } else {
                        cqc_workload::gen::zipf_pairs(&mut rng, name, 40, domain, &zipf)
                    })
                    .unwrap();
                }
                for (mu, pattern) in patterns.iter().enumerate() {
                    let view = parse_adorned(query, pattern).unwrap();
                    assert_eq!(view.mu(), mu + 1);
                    let weights = vec![1.0; relations.len()];
                    let alpha = cqc_lp::covers::slack(
                        &view.query().hypergraph(),
                        &weights,
                        view.free_vars(),
                    )
                    .max(1.0);
                    let est = CostEstimator::build(&view, &db, &weights, alpha).unwrap();
                    for tau in [1.0, 8.0, 1024.0] {
                        let mut seen: Vec<(Cursor, FInterval, f64)> = Vec::new();
                        let tree =
                            DelayBalancedTree::build_observed(&est, tau, |c, interval, t| {
                                seen.push((c, interval.clone(), t))
                            })
                            .unwrap();
                        let ctx = format!("{query} {pattern} seed {seed} τ={tau}");
                        assert_eq!(seen.len(), tree.len(), "{ctx}");
                        let (mut walked, mut last) = (0, None);
                        for (c, (built, interval, t)) in tree.cursors().zip(&seen) {
                            assert!(last < Some(c.node), "{ctx}: ids ascend");
                            last = Some(c.node);
                            assert_eq!(c, *built, "{ctx}");
                            assert_eq!(tree.interval(c), *interval, "{ctx} node {walked}");
                            assert_eq!(t_at(&est, &tree, c), *t, "{ctx} node {walked}");
                            let node = children(&tree, c);
                            assert_eq!(node.internal.is_none(), tree.is_leaf(c.node));
                            assert_eq!(node.internal, tree.internal_rank(c.node));
                            if let Some(beta) = tree.beta(c.node) {
                                assert!(interval.contains(&beta), "{ctx} node {walked}");
                                assert_eq!(node.left.is_some(), beta != interval.lo);
                                assert_eq!(node.right.is_some(), beta != interval.hi);
                                let shape = match (node.left, node.right) {
                                    (Some(_), Some(_)) => 0,
                                    (Some(_), None) => 1,
                                    (None, Some(_)) => 2,
                                    (None, None) => 3,
                                };
                                shapes[shape] += 1;
                            } else {
                                assert_eq!((node.left, node.right), (None, None));
                            }
                            walked += 1;
                        }
                        assert_eq!(walked, tree.len(), "{ctx}: the walk reaches every node");
                        shapes[4] += usize::from(tree.len() == 1);
                        assert_eq!(
                            tree.depth(),
                            seen.iter().map(|(c, _, _)| c.level).max().unwrap()
                        );
                    }
                }
            }
        }
        assert!(
            shapes.iter().all(|&n| n > 0),
            "every child shape must occur: {shapes:?}"
        );
    }
}
