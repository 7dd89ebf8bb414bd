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
//! A structure stores only the part of that tree Algorithm 2 can reach,
//! and the build splits only that part. Algorithm 2 goes below a node only
//! where the heavy-pair dictionary stores a `1` there, so a node that holds
//! no heavy pair is evaluated as `⊥` over the interval its parent's `β`
//! gives it, and nothing of its own is read. `TreeBuild` runs Algorithm 1
//! one node at a time: the dictionary's build costs each node its walk
//! reaches and splits and keeps those that hold an entry, and the tree is
//! written from those: the root, and both children of every kept node. A
//! stored node is internal iff it holds an entry; every other one is a
//! one-bit leaf, which may lie at or above its threshold.
//! [`DelayBalancedTree::build`] is the same splitter splitting and keeping
//! every node at or above its threshold: the whole tree of Figure 3 and
//! Lemma 4.
//!
//! Only the split points are stored, and only internal nodes have rows.
//! The topology is implicit, in level order (Jacobson's binary-marked
//! tree): the root is slot 0, the internal node of rank `r` owns slots
//! `2r + 1` (left child) and `2r + 2` (right child), and one bit per slot
//! says whether it holds an internal node. Whether a child slot holds a
//! node at all is not stored: it follows from `β`. Every reader walks
//! top-down and carries each node's interval `[lo, hi]`: a left child
//! keeps its parent's lower endpoint and ends at `pred(β)`, a right child
//! starts at `succ(β)` and keeps the upper endpoint. So a split point is
//! stored as its offset from `lo`, coordinate by coordinate, at one width
//! per level and coordinate — intervals shrink with depth, and so do the
//! offsets (docs/ARCHITECTURE.md, "Theorem 1 memory layout").

use crate::cost::{CostEstimator, PrefixCost};
use crate::fbox::{box_decomposition_ranks, lex_cmp_ranks, BoxList, CanonicalBox, FInterval};
use crate::split::split_interval;
use cqc_common::heap::HeapSize;
use cqc_common::metrics;
use cqc_common::packed::{BitColumn, BitWriter, RankedBits};
use cqc_common::util::{approx_ge, partition_point};
use cqc_storage::domain::{rank_tuple_pred, rank_tuple_succ};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Hard cap on tree depth; reaching it indicates a bug in the halving
/// invariant (Prop. 8), not a legitimate instance.
const MAX_LEVEL: u16 = 512;

/// Bits per stored width: a width is at most 57.
const WIDTH_BITS: u32 = 6;

/// The root's cursor.
const ROOT: Cursor = Cursor {
    node: 0,
    level: 0,
    first: 0,
    row_bit: 0,
};

/// A position in a top-down walk: the node's slot and level, and where its
/// level's rows are. The level's internal nodes are the ranks from `first`
/// on, and their rows, all at the level's widths, start `row_bit` bits
/// after the width header. The node's interval is the walker's: it carries
/// `[lo, hi]` down from the root.
///
/// Obtained from [`DelayBalancedTree::root`] and [`DelayBalancedTree::node`]
/// only, so the level's rows are always the right ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// The node's slot, its id: 0 for the root, `2r + 1` and `2r + 2` for
    /// the left and right child of the internal node of rank `r`.
    pub node: u32,
    /// Depth (root = 0).
    pub level: u16,
    /// The internal rank of the level's first internal node, `f_ℓ`.
    first: u32,
    /// Where the level's rows start, in bits after the width header.
    row_bit: usize,
}

/// What [`DelayBalancedTree::node`] finds at a cursor besides the split
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// The node's internal rank — it has a split point — or `None` for a
    /// leaf (no split point, no row).
    pub internal: Option<u32>,
    /// Left child (covers `[lo, pred(β)]`).
    pub left: Option<Cursor>,
    /// Right child (covers `[succ(β), hi]`).
    pub right: Option<Cursor>,
}

/// The delay-balanced tree, immutable after build.
///
/// A node is a leaf when its `T(I(w))` is below `τ_ℓ` or, in a tree a
/// structure stores, when it holds no heavy pair (module docs).
///
/// Node ids are level-order slots: the root is slot 0 and the internal
/// node of rank `r` (the internal nodes in slots before it) owns slots
/// `2r + 1` and `2r + 2` for its children, so no child id is stored. Per
/// slot (`2I + 1` of them for `I` internal nodes): one bit, set when the
/// slot holds an internal node. Per internal node: one `β` row of `µ`
/// offsets `d_i = (β_i − lo_i) mod |D_i|` from its interval's lower
/// endpoint, each at its level's width for that coordinate — the bit
/// length of the level's largest, 0 when all are 0. One bit column holds
/// the widths, 6 bits each, `µ` per level that has an internal node, then
/// the rows, level by level and by rank within a level. A leaf has no row,
/// and a child slot with no node is told apart from a leaf by `β`: the
/// left child exists iff `β ≠ lo`, the right one iff `β ≠ hi`. Intervals,
/// levels and children are derived by the walk; see [`Cursor`].
#[derive(Debug)]
pub struct DelayBalancedTree {
    /// One bit per slot, set where the slot holds an internal node; its
    /// rank is that node's row.
    internal: RankedBits,
    /// The width header, then the split points' rows.
    beta: BitColumn,
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

/// `(β_i − lo_i) mod n_i` per coordinate: what a row stores.
fn offsets<'a>(
    beta: &'a [usize],
    lo: &'a [usize],
    sizes: &'a [usize],
) -> impl Iterator<Item = u64> + 'a {
    let lo = lo.iter().zip(sizes);
    beta.iter()
        .zip(lo)
        .map(|(&b, (&l, &n))| (if b >= l { b - l } else { b + n - l }) as u64)
}

/// Appends one level's rows — `µ` offsets per internal node, by rank — to
/// `rows`, and the level's widths to `widths`: per coordinate, the bit
/// length of the level's largest offset.
fn encode_level(mu: usize, level: &[u64], widths: &mut Vec<u32>, rows: &mut BitWriter) {
    let at = widths.len();
    widths.extend((0..mu).map(|i| {
        let max = level.iter().skip(i).step_by(mu).max();
        bit_length(max.copied().unwrap_or(0))
    }));
    for row in level.chunks(mu) {
        for (&d, &w) in row.iter().zip(&widths[at..]) {
            rows.push(d, w);
        }
    }
}

/// The `β` column: the widths, 6 bits each, then the rows.
fn beta_column(widths: &[u32], rows: &BitWriter) -> BitColumn {
    let mut column = BitWriter::default();
    for &w in widths {
        column.push(u64::from(w), WIDTH_BITS);
    }
    column.append(rows);
    column.finish()
}

/// The columns as a level-order pass writes them: a bit per slot (64 to a
/// word), packed once every node is numbered, and the `β` rows, a level at
/// a time once its widths are known — `µ` offsets per internal node of the
/// level under the pass in `level_rows`.
#[derive(Default)]
struct Emitter {
    internal: Vec<u64>,
    widths: Vec<u32>,
    rows: BitWriter,
    level_rows: Vec<u64>,
    /// Nodes numbered so far, internal and leaves.
    nodes: usize,
    /// Internal nodes numbered so far: the next one's rank.
    ranks: u32,
    depth: u16,
    deepest_internal: Option<u16>,
}

impl Emitter {
    /// Writes the rows of the level under the pass at its widths: the
    /// next node numbered is on the level after it.
    fn end_level(&mut self, mu: usize) {
        encode_level(mu, &self.level_rows, &mut self.widths, &mut self.rows);
        self.level_rows.clear();
    }

    /// Numbers a node at `level`.
    fn node(&mut self, level: u16) {
        assert!(level < MAX_LEVEL, "delay-balanced tree too deep (bug)");
        self.nodes += 1;
        self.depth = self.depth.max(level);
    }

    /// Marks the node just numbered, in `slot` at `level`, internal, with
    /// split-point offsets `row`, and returns its rank.
    fn internal(&mut self, slot: u32, level: u16, row: impl Iterator<Item = u64>) -> u32 {
        let (rank, slot) = (self.ranks, slot as usize);
        self.ranks += 1;
        assert!(self.ranks < u32::MAX / 2, "slots fit in u32");
        self.internal.resize(slot / 64 + 1, 0);
        self.internal[slot / 64] |= 1 << (slot % 64);
        self.level_rows.extend(row);
        self.deepest_internal = Some(level);
        rank
    }

    /// The tree over the grid `sizes` once every node is numbered.
    fn finish(
        mut self,
        sizes: Vec<usize>,
        count_probes: u64,
        tau: f64,
        alpha: f64,
    ) -> DelayBalancedTree {
        // The last level with an internal node has no level after it.
        if !self.level_rows.is_empty() {
            self.end_level(sizes.len());
        }
        let slots = 2 * self.ranks as usize + 1;
        let internal = &self.internal;
        DelayBalancedTree {
            internal: RankedBits::new(
                (0..slots).map(|s| internal.get(s / 64).is_some_and(|w| w >> (s % 64) & 1 == 1)),
            ),
            beta: beta_column(&self.widths, &self.rows),
            sizes,
            nodes: self.nodes,
            depth: self.depth,
            deepest_internal: self.deepest_internal,
            count_probes,
            tau,
            alpha,
        }
    }
}

/// Where a node of a tree under construction sits: its level and, below
/// the root, the number [`TreeBuild::split`] gave its parent, and its side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Place {
    /// Depth (root = 0).
    pub(crate) level: u16,
    parent: u32,
    right: bool,
}

impl Place {
    /// The root's place.
    pub(crate) const ROOT: Place = Place {
        level: 0,
        parent: NO_NODE,
        right: false,
    };
}

/// No kept node: the root's parent, a child slot holding a leaf.
const NO_NODE: u32 = u32::MAX;

/// A kept node's links: its parent's number and side, and which of its
/// children exist (left, right).
#[derive(Debug)]
struct Kept {
    parent: u32,
    right: bool,
    children: [bool; 2],
}

/// Algorithm 1 one node at a time, and the tree of the nodes it split.
///
/// [`TreeBuild::cost`] takes a node's level and interval: it decomposes
/// the interval into boxes, costs them and applies the leaf test against
/// `τ_ℓ`. [`TreeBuild::split`] then finds `β` for a node that passed it,
/// keeps the node as an internal one of the tree under construction, and
/// names its children's places. Both count the count-index probes they
/// spend. [`TreeBuild::finish`] writes that tree in level order: the root
/// and the children of every kept node, a kept node internal, every other
/// one a leaf. [`DelayBalancedTree::build`] splits every node that passes
/// the leaf test; the dictionary's build costs a node only when its walk
/// reaches it, and splits it only when it holds an entry
/// (`HeavyDictionary::build`).
pub(crate) struct TreeBuild<'a> {
    est: &'a CostEstimator,
    /// The grid `D_f`.
    sizes: Vec<usize>,
    tau: f64,
    alpha: f64,
    /// Scratch of the node last costed: the interval's boxes and their
    /// `T`s (summed for the leaf test, then handed to Algorithm 1), and the
    /// Lemma 3 prefix oracle.
    boxes: BoxList,
    t_of: Vec<f64>,
    prefix_cost: PrefixCost<'a>,
    /// `T(I(w))` of the node last costed.
    t: f64,
    /// Count-index probes the costs and splits spent.
    count_probes: u64,
    /// The kept nodes, numbered in the order they were kept: the root
    /// first, every other one after its parent.
    kept: Vec<Kept>,
    /// `µ` split-point offsets per kept node, by number.
    rows: Vec<u64>,
}

impl<'a> TreeBuild<'a> {
    /// A build over the grid of `est` at threshold `τ ≥ 1`, nothing split
    /// yet; `None` when some free variable has an empty active domain.
    ///
    /// # Panics
    ///
    /// Panics if `tau < 1`.
    pub(crate) fn new(est: &'a CostEstimator, tau: f64) -> Option<TreeBuild<'a>> {
        assert!(tau >= 1.0, "τ must be at least 1");
        let sizes = est.sizes();
        FInterval::full(&sizes)?;
        let before = metrics::snapshot().count_probes;
        let prefix_cost = PrefixCost::new(est);
        Some(TreeBuild {
            est,
            sizes,
            tau,
            alpha: est.alpha(),
            boxes: BoxList::new(),
            t_of: Vec::new(),
            prefix_cost,
            t: 0.0,
            count_probes: metrics::snapshot().count_probes - before,
            kept: Vec::new(),
            rows: Vec::new(),
        })
    }

    /// The root's interval: the whole grid.
    pub(crate) fn root_interval(&self) -> FInterval {
        FInterval::full(&self.sizes).expect("a build's grid has a point")
    }

    /// The grid `D_f`.
    pub(crate) fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The delay knob τ.
    pub(crate) fn tau(&self) -> f64 {
        self.tau
    }

    /// The threshold `τ_ℓ` nodes at `level` are held against.
    pub(crate) fn threshold_of(&self, level: u16) -> f64 {
        tau_level(self.tau, self.alpha, level)
    }

    /// The box decomposition of the interval last costed.
    pub(crate) fn boxes(&self) -> &[CanonicalBox] {
        self.boxes.as_slice()
    }

    /// Costs the node at `level` over `interval`: decomposes the interval
    /// into boxes and sums their `T`s, then the leaf test — `true` when
    /// `T(I(w)) ≥ τ_ℓ` (zero-cost intervals are always leaves; they cannot
    /// be split).
    pub(crate) fn cost(&mut self, level: u16, interval: &FInterval) -> bool {
        assert!(level < MAX_LEVEL, "delay-balanced tree too deep (bug)");
        let before = metrics::snapshot().count_probes;
        box_decomposition_ranks(&interval.lo, &interval.hi, &self.sizes, &mut self.boxes);
        self.t_of.clear();
        self.t_of
            .extend(self.boxes.as_slice().iter().map(|b| self.est.t_box(b)));
        self.t = self.t_of.iter().sum();
        self.count_probes += metrics::snapshot().count_probes - before;
        self.t > 0.0 && approx_ge(self.t, self.threshold_of(level))
    }

    /// Algorithm 1 at the node just costed, at `at` over `interval`, which
    /// [`TreeBuild::cost`] found internal: writes its split point into
    /// `beta`, keeps the node as an internal one and returns its
    /// children's places, left and right — `[lo, pred(β)]` exists iff
    /// `β ≠ lo`, `[succ(β), hi]` iff `β ≠ hi`.
    ///
    /// # Panics
    ///
    /// Panics unless the root is kept first and only once.
    pub(crate) fn split(
        &mut self,
        at: Place,
        interval: &FInterval,
        beta: &mut Vec<usize>,
    ) -> [Option<Place>; 2] {
        assert_eq!(
            at.level == 0,
            self.kept.is_empty(),
            "the root is kept first"
        );
        let before = metrics::snapshot().count_probes;
        let boxes = self.boxes.as_slice();
        split_interval(&mut self.prefix_cost, &self.sizes, boxes, &self.t_of, beta);
        self.count_probes += metrics::snapshot().count_probes - before;
        assert!(
            interval.contains(beta),
            "split point must lie in the interval"
        );
        let id = u32::try_from(self.kept.len()).expect("kept nodes fit in u32");
        let children = [*beta != interval.lo, *beta != interval.hi];
        self.kept.push(Kept {
            parent: at.parent,
            right: at.right,
            children,
        });
        self.rows.extend(offsets(beta, &interval.lo, &self.sizes));
        let child = |right: bool| Place {
            level: at.level + 1,
            parent: id,
            right,
        };
        [
            children[0].then(|| child(false)),
            children[1].then(|| child(true)),
        ]
    }

    /// The tree of the kept nodes, in level order: the root, and the
    /// children of every kept node; a kept node is internal, with its row,
    /// every other node a one-bit leaf.
    pub(crate) fn finish(self) -> DelayBalancedTree {
        let mu = self.sizes.len();
        // Each kept node's kept children, by side.
        let mut kids = vec![[NO_NODE; 2]; self.kept.len()];
        for (id, k) in self.kept.iter().enumerate().skip(1) {
            kids[k.parent as usize][usize::from(k.right)] = id as u32;
        }
        let mut out = Emitter::default();
        // The nodes not numbered yet, in slot order: each one's slot, level
        // and kept number (`NO_NODE` for a leaf).
        let root = if self.kept.is_empty() { NO_NODE } else { 0 };
        let mut pending = VecDeque::from([(0u32, 0u16, root)]);
        let mut level = 0;
        while let Some((slot, at, id)) = pending.pop_front() {
            if at > level {
                out.end_level(mu);
                level = at;
            }
            out.node(at);
            let Some(k) = self.kept.get(id as usize) else {
                continue;
            };
            let row = &self.rows[id as usize * mu..][..mu];
            let rank = out.internal(slot, at, row.iter().copied());
            let sides = k.children.iter().zip(kids[id as usize]).zip([1, 2]);
            for ((&exists, kid), offset) in sides {
                if exists {
                    pending.push_back((2 * rank + offset, at + 1, kid));
                }
            }
        }
        out.finish(self.sizes, self.count_probes, self.tau, self.alpha)
    }
}

impl DelayBalancedTree {
    /// Builds the whole tree for the given cost oracle and threshold
    /// `τ ≥ 1`, every node at or above its threshold split and internal:
    /// the tree of Figure 3 and Lemma 4. A structure stores, and splits,
    /// only what Algorithm 2 can reach (module docs).
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

    /// [`DelayBalancedTree::build`], reporting each node as it is costed,
    /// in slot order: `observe(level, I(w), T(I(w)))` — what the build knew
    /// and the stored tree no longer holds.
    fn build_observed(
        est: &CostEstimator,
        tau: f64,
        mut observe: impl FnMut(u16, &FInterval, f64),
    ) -> Option<DelayBalancedTree> {
        let mut build = TreeBuild::new(est, tau)?;
        let mut interval = build.root_interval();
        let mut beta = Vec::with_capacity(interval.mu());
        // Breadth-first, children left before right, so the nodes are
        // costed in slot order: the ones not costed yet, each one's interval
        // `2µ` ranks in `bounds`.
        let mut pending = VecDeque::from([Place::ROOT]);
        let mut bounds: VecDeque<usize> = interval.lo.iter().chain(&interval.hi).copied().collect();
        let mut children = Vec::new();
        while let Some(at) = pending.pop_front() {
            for x in interval.lo.iter_mut().chain(interval.hi.iter_mut()) {
                *x = bounds.pop_front().expect("a pending node's interval");
            }
            let internal = build.cost(at.level, &interval);
            observe(at.level, &interval, build.t);
            if !internal {
                continue;
            }
            children.clear();
            for (right, child) in [false, true]
                .into_iter()
                .zip(build.split(at, &interval, &mut beta))
            {
                if let Some(child) = child {
                    pending.push_back(child);
                    let FInterval { lo, hi } = &interval;
                    child_interval_into(build.sizes(), right, lo, hi, &beta, &mut children);
                }
            }
            bounds.extend(&children);
        }
        Some(build.finish())
    }

    /// The root's cursor.
    pub fn root(&self) -> Cursor {
        ROOT
    }

    /// The root's interval: the whole grid.
    pub fn root_interval(&self) -> FInterval {
        FInterval::full(&self.sizes).expect("a tree's grid has a point")
    }

    /// Visits the node under `c`, whose interval `[lo, hi]` the caller
    /// carries: for an internal node, decodes its split point into `beta`
    /// (`µ` ranks) and returns its internal rank and the cursors of its
    /// children; a leaf leaves `beta` as it was. No allocation.
    ///
    /// # Panics
    ///
    /// Panics, in release builds too, unless `beta` holds `µ` ranks and
    /// `lo` and `hi` as many, and when the decoded split point lies
    /// outside `[lo, hi]`: a walker that carried the wrong interval.
    #[inline]
    pub fn node(&self, c: Cursor, lo: &[usize], hi: &[usize], beta: &mut [usize]) -> Node {
        let Some(rank) = self.internal.rank_of_set(c.node as usize) else {
            return Node {
                internal: None,
                left: None,
                right: None,
            };
        };
        let mu = self.sizes.len();
        assert_eq!(beta.len(), mu, "a split point has µ ranks");
        // The level's widths, parked in `beta` until the row is read.
        let header = WIDTH_BITS as usize * mu;
        let widths = header * usize::from(c.level);
        let mut stride = 0;
        for (i, w) in beta.iter_mut().enumerate() {
            *w = self
                .beta
                .bits_at(widths + i * WIDTH_BITS as usize, WIDTH_BITS) as usize;
            stride += *w;
        }
        let mut bit = header * self.beta_levels() + c.row_bit + (rank - c.first as usize) * stride;
        for ((b, &l), &n) in beta.iter_mut().zip(lo).zip(&self.sizes) {
            let width = *b;
            let v = l + self.beta.bits_at(bit, width as u32) as usize;
            *b = if v >= n { v - n } else { v };
            bit += width;
        }
        let beta: &[usize] = beta;
        let (above_lo, below_hi) = (lex_cmp_ranks(beta, lo), lex_cmp_ranks(beta, hi));
        assert!(
            above_lo != Ordering::Less && below_hi != Ordering::Greater,
            "split point {beta:?} outside its node's interval [{lo:?}, {hi:?}]"
        );
        // The left child `[lo, pred(β)]` is empty iff `β = lo`, the right
        // child `[succ(β), hi]` iff `β = hi`. The next level's internal
        // nodes start after this level's slots, which end at `2·f_ℓ + 1`.
        let (left, right) = (above_lo == Ordering::Greater, below_hi == Ordering::Less);
        let rank = rank as u32;
        let next = (left || right).then(|| {
            let first = self.internal.rank(2 * c.first as usize + 1);
            Cursor {
                node: 2 * rank + 1,
                level: c.level + 1,
                first: first as u32,
                row_bit: c.row_bit + (first - c.first as usize) * stride,
            }
        });
        Node {
            internal: Some(rank),
            left: next.filter(|_| left),
            right: next.filter(|_| right).map(|c| Cursor {
                node: c.node + 1,
                ..c
            }),
        }
    }

    /// Appends to `out` the interval, `2µ` ranks, of a child [`node`]
    /// returned for a node with interval `[lo, hi]` and split point `beta`:
    /// `[lo, pred(β)]` for the left child, `[succ(β), hi]` for the right.
    ///
    /// # Panics
    ///
    /// Panics, in release builds too, when that child cannot exist: `β` is
    /// the grid minimum (a left child) or maximum (a right one).
    ///
    /// [`node`]: DelayBalancedTree::node
    #[inline]
    pub fn child_interval_into(
        &self,
        right: bool,
        lo: &[usize],
        hi: &[usize],
        beta: &[usize],
        out: &mut Vec<usize>,
    ) {
        child_interval_into(&self.sizes, right, lo, hi, beta, out);
    }

    /// `true` when node `w` has no split point.
    #[inline]
    pub fn is_leaf(&self, w: u32) -> bool {
        !self.internal.get(w as usize)
    }

    /// Node `w`'s internal rank, `None` for a leaf.
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

    /// Walks from the root down to slot `w` the way its parents lead,
    /// leaving `I(w)` in `interval` and, at an internal node, its split
    /// point in `beta` (off the serve path: a climb from `w`, then one
    /// [`DelayBalancedTree::node`] per level).
    ///
    /// # Panics
    ///
    /// Panics when slot `w` holds no node.
    fn descend(&self, w: u32, interval: &mut FInterval, beta: &mut [usize]) {
        let mut sides = Vec::new();
        let mut at = w;
        while let Some((parent, right)) = self.parent(at) {
            sides.push(right);
            at = parent;
        }
        *interval = self.root_interval();
        let (mut c, mut child) = (self.root(), Vec::new());
        for &right in sides.iter().rev() {
            let node = self.node(c, &interval.lo, &interval.hi, beta);
            let next = if right { node.right } else { node.left };
            c = next.unwrap_or_else(|| panic!("slot {w} holds no node"));
            child.clear();
            self.child_interval_into(right, &interval.lo, &interval.hi, beta, &mut child);
            let (lo, hi) = child.split_at(self.sizes.len());
            interval.lo.copy_from_slice(lo);
            interval.hi.copy_from_slice(hi);
        }
        self.node(c, &interval.lo, &interval.hi, beta);
    }

    /// Decodes the split point of the internal node of rank `rank` into
    /// `out` (`µ` ranks; off the serve path, see
    /// [`DelayBalancedTree::beta`]).
    ///
    /// # Panics
    ///
    /// Panics unless `out` holds `µ` ranks, in release builds too: a longer
    /// one would read into the next row, a shorter one a partial row.
    pub fn split_point_into(&self, rank: u32, out: &mut [usize]) {
        assert_eq!(out.len(), self.sizes.len(), "a split point has µ ranks");
        let mut interval = self.root_interval();
        self.descend(self.internal_node(rank), &mut interval, out);
    }

    /// Node `w`'s split point as an owned value; `None` for a leaf (off
    /// the serve path: a descent from the root, which carries the
    /// intervals a row is decoded against).
    pub fn beta(&self, w: u32) -> Option<Vec<usize>> {
        self.internal_rank(w)?;
        let mut beta = vec![0; self.sizes.len()];
        let mut interval = self.root_interval();
        self.descend(w, &mut interval, &mut beta);
        Some(beta)
    }

    /// `I(w)` as an owned value (off the serve path: a descent from the
    /// root).
    pub fn interval(&self, c: Cursor) -> FInterval {
        let mut interval = self.root_interval();
        let mut beta = vec![0; self.sizes.len()];
        self.descend(c.node, &mut interval, &mut beta);
        interval
    }

    /// Every node's cursor in ascending slot order, as the build numbered
    /// them: a breadth-first walk from the root, each pending node's
    /// interval queued beside its cursor.
    pub fn cursors(&self) -> impl Iterator<Item = Cursor> + '_ {
        let mut queue = VecDeque::from([self.root()]);
        let FInterval { mut lo, mut hi } = self.root_interval();
        let mut bounds: VecDeque<usize> = lo.iter().chain(&hi).copied().collect();
        let (mut beta, mut children) = (lo.clone(), Vec::new());
        std::iter::from_fn(move || {
            let c = queue.pop_front()?;
            for x in lo.iter_mut().chain(hi.iter_mut()) {
                *x = bounds.pop_front().expect("a pending node's interval");
            }
            let node = self.node(c, &lo, &hi, &mut beta);
            children.clear();
            for (right, child) in [(false, node.left), (true, node.right)] {
                if let Some(child) = child {
                    queue.push_back(child);
                    self.child_interval_into(right, &lo, &hi, &beta, &mut children);
                }
            }
            bounds.extend(&children);
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

    /// Levels that hold an internal node, each with its `µ` widths in the
    /// `β` column's header.
    pub fn beta_levels(&self) -> usize {
        self.deepest_internal.map_or(0, |l| usize::from(l) + 1)
    }

    /// Bytes of the `β` column: the width header and the rows.
    pub fn beta_bytes(&self) -> usize {
        self.beta.heap_bytes()
    }

    /// Count-index probes spent building the tree: a deterministic work
    /// count (the same instance always reports the same number).
    pub fn build_count_probes(&self) -> u64 {
        self.count_probes
    }
}

/// Bits of `max`, 0 for 0: the width a level's offsets take.
fn bit_length(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// [`DelayBalancedTree::child_interval_into`] on the grid `sizes`.
pub(crate) fn child_interval_into(
    sizes: &[usize],
    right: bool,
    lo: &[usize],
    hi: &[usize],
    beta: &[usize],
    out: &mut Vec<usize>,
) {
    let at = out.len();
    if right {
        out.extend_from_slice(beta);
        let stepped = rank_tuple_succ(&mut out[at..], sizes);
        assert!(stepped, "no right child splits off the grid maximum");
        out.extend_from_slice(hi);
    } else {
        out.extend_from_slice(lo);
        out.extend_from_slice(beta);
        let stepped = rank_tuple_pred(&mut out[at + lo.len()..], sizes);
        assert!(stepped, "no left child splits off the grid minimum");
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
        let FInterval { lo, hi } = tree.interval(c);
        tree.node(c, &lo, &hi, &mut vec![0; lo.len()])
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

    /// What the `β` column holds, read back through the walk: each internal
    /// node's offsets from its interval's lower endpoint, by rank, and the
    /// first internal rank of each level that has one, then their count.
    fn stored_rows(tree: &DelayBalancedTree) -> (Vec<u64>, Vec<usize>) {
        let mu = tree.sizes.len();
        let mut rows = vec![0; mu * tree.num_internal()];
        let mut firsts = vec![0];
        for c in tree.cursors() {
            let Some(rank) = tree.internal_rank(c.node) else {
                continue;
            };
            let (interval, beta) = (tree.interval(c), tree.beta(c.node).unwrap());
            let row = offsets(&beta, &interval.lo, &tree.sizes);
            for (d, o) in rows[rank as usize * mu..].iter_mut().zip(row) {
                *d = o;
            }
            if usize::from(c.level) == firsts.len() {
                firsts.push(rank as usize);
            }
        }
        firsts.push(tree.num_internal());
        (rows, firsts)
    }

    /// The `β` column's bits as the layout prescribes them: 6 per width,
    /// `µ` widths per level with an internal node, and per internal node
    /// its level's widths summed, each width the bit length of the level's
    /// largest offset in that coordinate.
    fn beta_bits(tree: &DelayBalancedTree) -> usize {
        let mu = tree.sizes.len();
        let (rows, firsts) = stored_rows(tree);
        let header = 6 * mu * (firsts.len() - 1);
        let rows: usize = firsts
            .windows(2)
            .map(|level| {
                let widths: usize = (0..mu)
                    .map(|i| {
                        let max = (level[0]..level[1]).map(|r| rows[r * mu + i]).max();
                        bit_length(max.unwrap()) as usize
                    })
                    .sum();
                (level[1] - level[0]) * widths
            })
            .sum();
        header + rows
    }

    /// A width of 0 is legal: a coordinate no split point of a level moves
    /// off its node's lower endpoint takes no bit. In the running example
    /// at τ = 4 both internal nodes split at an offset `(0, 0, 1)` from
    /// their `lo` (the root at `⟨1,1,2⟩` of `[⟨1,1,1⟩, ⟨2,2,2⟩]`, `r_r` at
    /// `⟨1,2,2⟩` of `[⟨1,2,1⟩, ⟨2,2,2⟩]`): two levels of widths `(0, 0, 1)`,
    /// 36 header bits and one bit per row.
    #[test]
    fn a_coordinate_that_never_moves_takes_no_bit() {
        let tree = DelayBalancedTree::build(&running_estimator(), 4.0).unwrap();
        assert_eq!(tree.beta_levels(), 2);
        let widths: Vec<u64> = (0..6).map(|i| tree.beta.bits_at(6 * i, 6)).collect();
        assert_eq!(widths, [0, 0, 1, 0, 0, 1]);
        assert_eq!((tree.beta.len(), beta_bits(&tree)), (38, 38));
        assert_eq!(tree.beta_bytes(), 8);
        assert_eq!(tree.beta(0), Some(vec![0, 0, 1]));
        assert_eq!(tree.beta(2), Some(vec![0, 1, 1]));
    }

    /// A tree over one free variable (`µ = 1`): one width per level, and
    /// the column is exactly what the layout prescribes, on the 2-path
    /// `Q^{bfb}` over skewed data at three τ.
    #[test]
    fn a_one_variable_tree_stores_one_width_per_level() {
        use cqc_query::parser::parse_adorned;
        let mut rng = cqc_workload::rng(5);
        let zipf = cqc_workload::Zipf::new(60, 1.1);
        let mut db = cqc_storage::Database::new();
        for name in ["R", "S"] {
            db.add(cqc_workload::gen::zipf_pairs(
                &mut rng, name, 400, 60, &zipf,
            ))
            .unwrap();
        }
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bfb").unwrap();
        let est = CostEstimator::build(&view, &db, &[1.0, 1.0], 1.0).unwrap();
        for tau in [1.0, 4.0, 16.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            assert_eq!(tree.sizes.len(), 1);
            assert!(
                tree.beta_levels() > 2,
                "τ={tau}: {} levels",
                tree.beta_levels()
            );
            assert_eq!(tree.beta.len(), beta_bits(&tree), "τ={tau}");
            assert_eq!(tree.beta_bytes(), beta_bits(&tree).div_ceil(64) * 8);
            // No width exceeds the grid's rank width.
            let grid = bit_length(tree.sizes[0] as u64 - 1);
            for level in 0..tree.beta_levels() {
                assert!(
                    tree.beta.bits_at(6 * level, 6) <= u64::from(grid),
                    "τ={tau}"
                );
            }
        }
    }

    /// A walker that carries the wrong interval decodes a split point
    /// outside it, and `node` refuses it in release builds too. The
    /// running example's `r_r` spans `[⟨1,2,1⟩, ⟨2,2,2⟩]`; offsets
    /// `(0, 1, 1)` decode to `⟨1,1,2⟩`, below its lower endpoint.
    #[test]
    #[should_panic(expected = "outside its node's interval")]
    fn a_split_point_outside_its_interval_panics() {
        let mut tree = DelayBalancedTree::build(&running_estimator(), 4.0).unwrap();
        let (mut rows, firsts) = stored_rows(&tree);
        assert_eq!(&rows[3..], [0, 0, 1], "r_r's row");
        rows[3..].copy_from_slice(&[0, 1, 1]);
        let (mut widths, mut column) = (Vec::new(), BitWriter::default());
        for level in firsts.windows(2) {
            encode_level(
                3,
                &rows[3 * level[0]..3 * level[1]],
                &mut widths,
                &mut column,
            );
        }
        tree.beta = beta_column(&widths, &column);
        assert_eq!(tree.beta(0), Some(vec![0, 0, 1]), "the root still decodes");
        tree.beta(2);
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

    /// One splitter serves both builds, and the tree it writes does not
    /// depend on the order nodes were split in: split depth-first, the
    /// right child first, every node at or above its threshold gives the
    /// breadth-first build bit for bit, with the same work count; splitting
    /// none leaves the root a one-bit leaf with no `β`, its cost counted.
    #[test]
    fn splitting_every_node_or_none_writes_the_whole_tree_or_a_root_leaf() {
        let est = running_estimator();
        for tau in [1.0, 2.0, 4.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            let mut build = TreeBuild::new(&est, tau).unwrap();
            let mu = build.sizes().len();
            let (mut stack, mut beta) = (vec![(Place::ROOT, build.root_interval())], Vec::new());
            while let Some((at, interval)) = stack.pop() {
                if !build.cost(at.level, &interval) {
                    continue;
                }
                for (right, child) in [false, true]
                    .into_iter()
                    .zip(build.split(at, &interval, &mut beta))
                {
                    let mut bounds = Vec::new();
                    let FInterval { lo, hi } = &interval;
                    if let Some(child) = child {
                        child_interval_into(build.sizes(), right, lo, hi, &beta, &mut bounds);
                        let (lo, hi) = bounds.split_at(mu);
                        let (lo, hi) = (lo.to_vec(), hi.to_vec());
                        stack.push((child, FInterval { lo, hi }));
                    }
                }
            }
            let all = build.finish();
            assert_eq!((all.len(), all.depth()), (tree.len(), tree.depth()));
            assert_eq!(all.deepest_internal, tree.deepest_internal);
            assert_eq!(all.internal.len(), tree.internal.len());
            assert!((0..tree.num_slots()).all(|w| all.internal.get(w) == tree.internal.get(w)));
            assert_eq!(all.beta.len(), tree.beta.len(), "τ={tau}");
            assert!((0..tree.beta.len()).all(|b| all.beta.bits_at(b, 1) == tree.beta.bits_at(b, 1)));
            assert_eq!(all.build_count_probes(), tree.build_count_probes());

            let mut root_only = TreeBuild::new(&est, tau).unwrap();
            let root = root_only.root_interval();
            assert!(root_only.cost(0, &root), "τ={tau}: the root is internal");
            let none = root_only.finish();
            assert_eq!((none.len(), none.num_internal(), none.depth()), (1, 0, 0));
            assert_eq!((none.beta_levels(), none.beta.len()), (0, 0));
            let probes = none.build_count_probes();
            assert!(0 < probes && probes < tree.build_count_probes(), "τ={tau}");
        }
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
    /// node's level, interval and `T` exactly as the build observed them,
    /// in the build's order, which is ascending slot order — through every child
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
                        let mut seen: Vec<(u16, FInterval, f64)> = Vec::new();
                        let tree =
                            DelayBalancedTree::build_observed(&est, tau, |level, interval, t| {
                                seen.push((level, interval.clone(), t))
                            })
                            .unwrap();
                        let ctx = format!("{query} {pattern} seed {seed} τ={tau}");
                        assert_eq!(seen.len(), tree.len(), "{ctx}");
                        let (mut walked, mut last) = (0, None);
                        for (c, (level, interval, t)) in tree.cursors().zip(&seen) {
                            assert!(last < Some(c.node), "{ctx}: ids ascend");
                            last = Some(c.node);
                            assert_eq!(c.level, *level, "{ctx}");
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
                            seen.iter().map(|&(level, _, _)| level).max().unwrap()
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
