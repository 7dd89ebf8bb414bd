//! The Theorem 1 compressed representation and its Algorithm 2 enumerator.
//!
//! The structure is the pair `(T, D)` of §4.3 — delay-balanced tree plus
//! heavy-pair dictionary — together with the linear-size base indexes (the
//! join plan's tries) and the rank-space grid. The cost oracle `T(·)` that
//! shapes the pair lives for the build only: Algorithm 2 never counts.
//! For a cover `u` with slack `α` on the free variables and knob `τ`:
//!
//! * space: `Õ(|D| + Π_F |R_F|^{u_F} / τ^α)`;
//! * answering `Q^η[v_b]`: lexicographic enumeration with delay `Õ(τ)` and
//!   total answer time `Õ(|q(D)| + τ·|q(D)|^{1/α})` (Props. 9–10).
//!
//! The enumerator walks the tree in order: at a `⊥` (light) node it
//! evaluates the restricted join box by box with worst-case-optimal joins;
//! at a `1` node it recurses left, checks the split point, recurses right;
//! `0` nodes are skipped. The explicit stack keeps O(depth) = O(log)
//! working memory, as the paper's model requires.

use crate::cost::{ranks_to_values_into, CostEstimator};
use crate::dbtree::{Cursor, DelayBalancedTree};
use crate::dictionary::{free_constraints_into, HeavyDictionary, Side};
use crate::fbox::{box_decomposition_ranks, BoxList, FInterval};
use cqc_common::error::{CqcError, Result};
use cqc_common::heap::HeapSize;
use cqc_common::value::Value;
use cqc_join::leapfrog::{LeapfrogJoin, LevelConstraint};
use cqc_join::plan::ViewPlan;
use cqc_lp::covers::slack;
use cqc_query::AdornedView;
use cqc_storage::{Database, Domain, IndexPool, SortedIndex};
use std::sync::Arc;

/// The Theorem 1 data structure.
///
/// Fields are `pub(crate)` so that [`crate::maintain`] can re-assemble a
/// structure from delta-maintained parts without re-running Algorithm 1.
#[derive(Debug, Clone)]
pub struct Theorem1Structure {
    pub(crate) view: AdornedView,
    pub(crate) plan: ViewPlan,
    /// Active domains of the free variables, in enumeration order: the
    /// rank-space grid every interval of the tree is expressed in.
    pub(crate) domains: Vec<Domain>,
    /// `None` when some free variable's active domain is empty — every
    /// access request then has an empty answer. Immutable after build and
    /// shared with every delta-maintained successor of this structure.
    pub(crate) tree: Option<Arc<DelayBalancedTree>>,
    pub(crate) dict: HeavyDictionary,
    pub(crate) sizes: Vec<usize>,
    pub(crate) weights: Vec<f64>,
    pub(crate) alpha: f64,
    pub(crate) tau: f64,
}

impl Theorem1Structure {
    /// Compresses the view with the given fractional edge cover `weights`
    /// (one weight per atom, covering **all** variables, as Theorem 1
    /// requires) and threshold `τ ≥ 1`.
    ///
    /// # Errors
    ///
    /// Fails for non-natural-join views, views without free variables
    /// (Prop. 1 is Theorem 2 over the root bag), invalid covers, or `τ < 1` (NaN included). `τ = ∞`
    /// is valid: a one-leaf tree, the direct-evaluation extreme of §2.3.
    pub fn build(
        view: &AdornedView,
        db: &Database,
        weights: &[f64],
        tau: f64,
    ) -> Result<Theorem1Structure> {
        Theorem1Structure::build_pooled(view, db, weights, tau, &IndexPool::new())
    }

    /// [`Theorem1Structure::build`] drawing every sorted index from `pool`:
    /// the cost oracle's access indexes and the join plan's trie indexes
    /// share the same column orders, so between them each distinct
    /// `(relation, order)` index is sorted exactly once — and a pool that
    /// has served strategy selection or another view over the same
    /// relations (the engine's store) has most of them already.
    ///
    /// The oracle does not outlive this call: it costs the tree, lets its
    /// `[free | bound]` indexes go, decides the dictionary from the
    /// `[bound | free]` ones (the plan's tries) and leaves only its grid.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Theorem1Structure::build`].
    pub fn build_pooled(
        view: &AdornedView,
        db: &Database,
        weights: &[f64],
        tau: f64,
        pool: &IndexPool,
    ) -> Result<Theorem1Structure> {
        Theorem1Structure::build_reaching(view, db, weights, tau, pool, |_| true)
    }

    /// [`Theorem1Structure::build_pooled`] where an answer counts only when
    /// `reaches` accepts its `[bound | free]` row: a Theorem 2 bag's answer
    /// that extends into every child subtree. The dictionary's bits and
    /// its light-by-work verdicts are then about the answers Algorithm 5
    /// emits, not the bag's own (`HeavyDictionary::build_reaching`).
    pub(crate) fn build_reaching(
        view: &AdornedView,
        db: &Database,
        weights: &[f64],
        tau: f64,
        pool: &IndexPool,
        reaches: impl FnMut(&[Value]) -> bool,
    ) -> Result<Theorem1Structure> {
        let query = view.query();
        query.require_natural_join()?;
        query.check_schema(db)?;
        if view.mu() == 0 {
            return Err(CqcError::Config(
                "all head variables are bound; Prop. 1 is Theorem 2 over the root bag \
                 (Theorem2Structure::build_constant_delay)"
                    .into(),
            ));
        }
        if tau.is_nan() || tau < 1.0 {
            return Err(CqcError::Config(format!("τ = {tau} must be ≥ 1")));
        }
        let h = query.hypergraph();
        if weights.len() != query.atoms.len() {
            return Err(CqcError::Config(format!(
                "expected {} cover weights, got {}",
                query.atoms.len(),
                weights.len()
            )));
        }
        for x in h.all_vars().iter() {
            let covered: f64 = h
                .edges()
                .iter()
                .zip(weights)
                .filter(|(e, _)| e.contains(x))
                .map(|(_, w)| *w)
                .sum();
            if covered < 1.0 - 1e-6 {
                return Err(CqcError::Config(format!(
                    "weights do not cover variable {} (Theorem 1 needs a cover of V)",
                    query.var_name(x)
                )));
            }
        }
        let alpha = slack(&h, weights, view.free_vars()).max(1.0);

        let mut est = CostEstimator::build_pooled(view, db, weights, alpha, pool)?;
        let plan = ViewPlan::build_pooled(view, db, pool)?;
        let sizes = est.sizes();
        // The tree is split as the dictionary's walk reaches it, and keeps
        // only what Algorithm 2 can reach: the nodes that hold an entry,
        // and their children (`HeavyDictionary::build_reaching`).
        let (tree, dict) = match HeavyDictionary::build_reaching(&plan, &est, tau, reaches) {
            Some((tree, dict)) => (Some(Arc::new(tree)), dict),
            None => (None, HeavyDictionary::empty()),
        };
        est.release_tree_side();
        Ok(Theorem1Structure {
            view: view.clone(),
            plan,
            domains: est.into_domains(),
            tree,
            dict,
            sizes,
            weights: weights.to_vec(),
            alpha,
            tau,
        })
    }

    /// The slack `α(V_f)` of the cover in use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The delay knob τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The cover weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The compressed view definition.
    pub fn view(&self) -> &AdornedView {
        &self.view
    }

    /// The delay-balanced tree (if the view is non-degenerate).
    pub fn tree(&self) -> Option<&DelayBalancedTree> {
        self.tree.as_deref()
    }

    /// The heavy-pair dictionary.
    pub fn dictionary(&self) -> &HeavyDictionary {
        &self.dict
    }

    /// Active domains of the free variables, in enumeration order (the
    /// grid that turns the tree's ranks back into values).
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The shared handles of every base index: the plan's tries.
    pub fn base_indexes(&self) -> impl Iterator<Item = &Arc<SortedIndex>> + '_ {
        self.plan.indexes().iter()
    }

    /// An un-started cursor over this structure. It owns all enumeration
    /// scratch (constraint vectors, box buffers, one reusable leapfrog
    /// join), so serving a request stream through one cursor's
    /// [`Theorem1Iter::answer_into`] performs zero steady-state
    /// allocations.
    pub fn enumerator(&self) -> Theorem1Iter<'_> {
        Theorem1Iter {
            s: self,
            vb: Vec::new(),
            stack: Vec::new(),
            bounds: Vec::new(),
            clip: None,
            join: None,
            join_active: false,
            boxes: BoxList::new(),
            next_box: 0,
            boxes_active: false,
            cons: Vec::new(),
            point: Vec::new(),
            probe: Vec::new(),
            emit_from_join: false,
        }
    }

    /// Membership of the fully fixed point: is `(v_b, free_vals)` in the
    /// join? (Algorithm 2 line 11: the split-point check, O(#atoms·log).)
    /// `probe` is a caller-owned scratch buffer for the per-atom prefix
    /// keys, so the check performs no allocation.
    fn point_in_join(&self, vb: &[Value], free_vals: &[Value], probe: &mut Vec<Value>) -> bool {
        let nb = self.plan.num_bound;
        for i in 0..self.plan.num_atoms() {
            let levels = self.plan.atom_levels(i);
            probe.clear();
            probe.extend(
                levels
                    .iter()
                    .map(|&l| if l < nb { vb[l] } else { free_vals[l - nb] }),
            );
            if self.plan.index(i).count(probe, None) == 0 {
                return false;
            }
        }
        true
    }

    /// Statistics for the benchmark harness.
    pub fn stats(&self) -> Theorem1Stats {
        let space = self.space_breakdown();
        let dict_work = self.dict.build_work();
        Theorem1Stats {
            tree_nodes: self.tree().map_or(0, DelayBalancedTree::len),
            tree_leaves: self.tree().map_or(0, DelayBalancedTree::num_leaves),
            tree_depth: self.tree().map_or(0, DelayBalancedTree::depth),
            tree_beta_bytes: self.tree().map_or(0, DelayBalancedTree::beta_bytes),
            dict_entries: self.dict.num_entries(),
            dict_value_width: self.dict.value_width(),
            dict_child_bits: self.dict.child_bits(),
            dict_candidates: dict_work.candidates as usize,
            tree_count_probes: self.tree().map_or(0, DelayBalancedTree::build_count_probes),
            dict_evaluations: dict_work.evaluations,
            dict_probes: dict_work.probes,
            dict_light_by_work: dict_work.light_by_work,
            dict_capped_work: dict_work.capped_work,
            heap_bytes: self.heap_bytes(),
            tree_bytes: space.tree_bytes,
            dict_bytes: space.dict_bytes,
            base_index_bytes: space.base_index_bytes,
            base_index_distinct_bytes: space.base_index_distinct_bytes,
            base_index_widths: (
                self.base_indexes()
                    .flat_map(|ix| (0..ix.arity()).map(|d| ix.keys(d).width()))
                    .max()
                    .unwrap_or(0),
                self.domains
                    .iter()
                    .map(|d| d.values().width())
                    .max()
                    .unwrap_or(0),
            ),
            alpha: self.alpha,
            tau: self.tau,
        }
    }

    /// `true` when `self` and `other` share one tree and one dictionary
    /// key buffer — what delta maintenance preserves (only bits differ).
    pub fn shares_layout_with(&self, other: &Theorem1Structure) -> bool {
        let same_tree = match (&self.tree, &other.tree) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        same_tree && self.dict.shares_keys_with(&other.dict)
    }

    /// Per-component space accounting: the linear base indexes versus the
    /// τ-dependent structure (tree + dictionary) — the two terms of
    /// Theorem 1's `Õ(|D| + Π|R_F|^{u_F}/τ^α)` bound, separated so that
    /// scaling experiments can fit the non-linear term in isolation.
    pub fn space_breakdown(&self) -> SpaceBreakdown {
        // Atoms over one relation in one column order share a trie; each
        // allocation counts at its first holder.
        let mut seen: Vec<*const SortedIndex> = Vec::new();
        let mut first_holder = |index: &Arc<SortedIndex>| {
            let allocation = Arc::as_ptr(index);
            let first = !seen.contains(&allocation);
            if first {
                seen.push(allocation);
            }
            first
        };
        let grid_bytes = domains_heap_bytes(&self.domains);
        SpaceBreakdown {
            base_index_bytes: self.plan.heap_bytes() + grid_bytes,
            base_index_distinct_bytes: self.plan.heap_bytes_counting(&mut first_holder)
                + grid_bytes,
            tree_bytes: self.tree().map_or(0, HeapSize::heap_bytes),
            dict_bytes: self.dict.heap_bytes(),
        }
    }
}

/// The two space terms of Theorem 1, reported separately.
#[derive(Debug, Clone, Copy)]
pub struct SpaceBreakdown {
    /// Linear-size base indexes (the plan's tries) and the grid: the
    /// `Õ(|D|)` term, as `heap_bytes` counts it — an `Arc`-shared index
    /// once per holder.
    pub base_index_bytes: usize,
    /// The same term with every shared index allocation counted once: what
    /// is resident.
    pub base_index_distinct_bytes: usize,
    /// Delay-balanced tree bytes (part of the `/τ^α` term).
    pub tree_bytes: usize,
    /// Heavy-pair dictionary bytes (the dominant `/τ^α` term).
    pub dict_bytes: usize,
}

impl SpaceBreakdown {
    /// The τ-dependent (non-linear) bytes.
    pub fn nonlinear_bytes(&self) -> usize {
        self.tree_bytes + self.dict_bytes
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> usize {
        self.base_index_bytes + self.nonlinear_bytes()
    }
}

/// Structure statistics.
#[derive(Debug, Clone, Copy)]
pub struct Theorem1Stats {
    /// Stored nodes of the delay-balanced tree: those Algorithm 2 can
    /// reach (see [`HeavyDictionary::build`]).
    pub tree_nodes: usize,
    /// Of them leaves: one bit each, no row.
    pub tree_leaves: usize,
    /// Depth of the stored tree.
    pub tree_depth: u16,
    /// Bytes of the tree's `β` column, its width header included (0
    /// without a tree).
    pub tree_beta_bytes: usize,
    /// Heavy pairs stored in the dictionary.
    pub dict_entries: usize,
    /// Bits per stored candidate value.
    pub dict_value_width: u32,
    /// The dictionary's child bits: two per entry.
    pub dict_child_bits: usize,
    /// Root candidate valuations (Prop. 13) the dictionary build started
    /// from.
    pub dict_candidates: usize,
    /// Build work, tree: count-index probes of the splits the build made —
    /// the leaf test at each node the dictionary's walk reached and
    /// Algorithm 1 at each node it kept, not at every node of the whole
    /// tree (deterministic, like the dictionary counts below; a maintained
    /// structure reports the build its layout came from).
    pub tree_count_probes: u64,
    /// Build work, dictionary: `(candidate, node)` pairs whose
    /// `T(v_b, I(w))` was evaluated.
    pub dict_evaluations: u64,
    /// Build work, dictionary: restricted joins seeded for heavy pairs
    /// (one per box of each capped run).
    pub dict_probes: u64,
    /// Def.-3-heavy pairs the build left ⊥ because their capped run
    /// finished, with an answer, within
    /// [`LIGHT_WORK_CAP`](crate::dictionary::LIGHT_WORK_CAP)`·τ` units.
    pub dict_light_by_work: u64,
    /// Build work, dictionary: the units (trie seeks) the capped runs
    /// spent.
    pub dict_capped_work: u64,
    /// Total owned heap bytes (tree + dictionary + base indexes).
    pub heap_bytes: usize,
    /// Delay-balanced tree bytes (see [`SpaceBreakdown`]).
    pub tree_bytes: usize,
    /// Heavy-pair dictionary bytes.
    pub dict_bytes: usize,
    /// Linear-size base index bytes (the `Õ(|D|)` term), an `Arc`-shared
    /// index counted once per holder — the share of `heap_bytes`.
    pub base_index_bytes: usize,
    /// The same with every shared index allocation counted once.
    pub base_index_distinct_bytes: usize,
    /// Bits per value of the widest trie key column and of the widest grid
    /// domain (each a whole word size: 8, 16, 32 or 64).
    pub base_index_widths: (u32, u32),
    /// Slack α.
    pub alpha: f64,
    /// Threshold τ.
    pub tau: f64,
}

impl Theorem1Stats {
    /// The counts as `(name, value)` pairs, in field order: what a
    /// `Stats` reply carries. The knobs α and τ are the view's recipe.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        let Theorem1Stats {
            tree_nodes,
            tree_leaves,
            tree_depth,
            tree_beta_bytes,
            dict_entries,
            dict_value_width,
            dict_child_bits,
            dict_candidates,
            tree_count_probes,
            dict_evaluations,
            dict_probes,
            dict_light_by_work,
            dict_capped_work,
            heap_bytes,
            tree_bytes,
            dict_bytes,
            base_index_bytes,
            base_index_distinct_bytes,
            base_index_widths: (key_width, grid_width),
            alpha: _,
            tau: _,
        } = *self;
        let n = |v: usize| v as u64;
        vec![
            ("tree_nodes", n(tree_nodes)),
            ("tree_leaves", n(tree_leaves)),
            ("tree_depth", u64::from(tree_depth)),
            ("tree_beta_bytes", n(tree_beta_bytes)),
            ("dict_entries", n(dict_entries)),
            ("dict_value_width", u64::from(dict_value_width)),
            ("dict_child_bits", n(dict_child_bits)),
            ("dict_candidates", n(dict_candidates)),
            ("tree_count_probes", tree_count_probes),
            ("dict_evaluations", dict_evaluations),
            ("dict_probes", dict_probes),
            ("dict_light_by_work", dict_light_by_work),
            ("dict_capped_work", dict_capped_work),
            ("heap_bytes", n(heap_bytes)),
            ("tree_bytes", n(tree_bytes)),
            ("dict_bytes", n(dict_bytes)),
            ("base_index_bytes", n(base_index_bytes)),
            ("base_index_distinct_bytes", n(base_index_distinct_bytes)),
            ("base_key_width", u64::from(key_width)),
            ("base_grid_width", u64::from(grid_width)),
        ]
    }
}

/// Heap bytes of a grid, `Domain` headers included.
fn domains_heap_bytes(domains: &[Domain]) -> usize {
    domains
        .iter()
        .map(|d| d.heap_bytes() + std::mem::size_of::<Domain>())
        .sum()
}

impl HeapSize for Theorem1Structure {
    fn heap_bytes(&self) -> usize {
        self.plan.heap_bytes()
            + domains_heap_bytes(&self.domains)
            + self.tree().map_or(0, HeapSize::heap_bytes)
            + self.dict.heap_bytes()
            + self.sizes.heap_bytes()
            + self.weights.heap_bytes()
    }
}

/// Free variables whose rank scratch [`Theorem1Iter::advance`] keeps on
/// the stack. (Zeroing a buffer wide enough for any view — 64 variables —
/// at every visited node cost 10 % of `core.enum.ns_per_answer`.)
const INLINE_MU: usize = 8;

/// `n` ranks of scratch for one visited node: on the stack when they fit,
/// else spilled — a view with more than [`INLINE_MU`] free variables pays
/// one allocation per visited node.
fn rank_scratch<'a>(
    inline: &'a mut [usize; 3 * INLINE_MU],
    spill: &'a mut Vec<usize>,
    n: usize,
) -> &'a mut [usize] {
    if n <= inline.len() {
        &mut inline[..n]
    } else {
        spill.resize(n, 0);
        spill
    }
}

/// Stack frames of the in-order traversal. Each carries ranks in the
/// cursor's `bounds`, pushed and popped with it.
#[derive(Debug, Clone, Copy)]
enum Frame {
    /// Visit a node (dictionary lookup decides how), with the request's
    /// entry there (`None`: the node is `⊥` for this valuation); its
    /// interval is `2µ` ranks, `lo` then `hi`.
    Enter(Cursor, Option<u32>),
    /// Emit a split point, `µ` ranks, if it is in the join (after the left
    /// subtree).
    Point,
}

/// The Algorithm 2 cursor: lexicographic, duplicate-free enumeration of a
/// request's free-variable tuples with delay Õ(τ), optionally clipped to an
/// output range.
///
/// Answers leave through a sink ([`Theorem1Iter::answer_into`],
/// [`Theorem1Iter::answer_range_into`]) as borrowed slices. All working
/// memory (traversal stack, constraint vector, canonical-box buffer, one
/// leapfrog join reused across boxes and nodes, split-point scratch) lives
/// in the cursor and is reused across nodes **and across requests**.
pub struct Theorem1Iter<'a> {
    s: &'a Theorem1Structure,
    vb: Vec<Value>,
    stack: Vec<Frame>,
    /// The ranks the frames on `stack` carry, end to end in stack order.
    bounds: Vec<usize>,
    /// Optional lexicographic output clip (rank space).
    clip: Option<FInterval>,
    /// The one leapfrog join, re-seeded per canonical box via
    /// [`LeapfrogJoin::reset`]; created lazily at the first `⊥` node.
    join: Option<LeapfrogJoin<'a>>,
    /// `true` while the join is mid-drain on the current box.
    join_active: bool,
    /// Box decomposition of the current `⊥` node's (clipped) interval.
    boxes: BoxList,
    next_box: usize,
    /// `true` while boxes of the current `⊥` node remain.
    boxes_active: bool,
    /// Reused per-box constraint vector (bound prefix + box constraints).
    cons: Vec<LevelConstraint>,
    /// Split-point values of the most recent `Point` answer.
    point: Vec<Value>,
    /// Scratch for the split-point membership probe.
    probe: Vec<Value>,
    /// Whether [`Theorem1Iter::current`] reads from the join or `point`.
    emit_from_join: bool,
}

impl Theorem1Iter<'_> {
    /// Answers one request into `sink` — every answer in lexicographic
    /// order, stopping early if the sink declines — reusing all scratch
    /// from previous calls.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn answer_into(
        &mut self,
        bound_values: &[Value],
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        self.reset(bound_values)?;
        self.drain_into(sink);
        Ok(())
    }

    /// Range-restricted access: pushes only the answers whose
    /// free-variable tuple lies in the inclusive lexicographic range
    /// `[lo, hi]` (in enumeration order) — an extension the structure
    /// supports natively because its output is ordered.
    ///
    /// Only the O(log) tree nodes straddling the range boundaries lose the
    /// dictionary's progress guarantee, so the delay stays `Õ(τ)`.
    ///
    /// # Errors
    ///
    /// Fails on access arity mismatches or when `lo`/`hi` do not have one
    /// value per free variable.
    pub fn answer_range_into(
        &mut self,
        bound_values: &[Value],
        lo: &[Value],
        hi: &[Value],
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        self.s.view.check_access(bound_values)?;
        let mu = self.s.view.mu();
        if lo.len() != mu || hi.len() != mu {
            return Err(CqcError::InvalidAccess(format!(
                "range endpoints must have {mu} values (one per free variable)"
            )));
        }
        let domains = &self.s.domains;
        let clip = grid_ceil(domains, lo)
            .zip(grid_floor(domains, hi))
            .and_then(|(lo_r, hi_r)| {
                use crate::fbox::lex_cmp_ranks;
                (lex_cmp_ranks(&lo_r, &hi_r) != std::cmp::Ordering::Greater)
                    .then_some(FInterval { lo: lo_r, hi: hi_r })
            });
        // An empty clip enumerates nothing.
        let enabled = clip.is_some();
        self.start(bound_values, clip, enabled);
        self.drain_into(sink);
        Ok(())
    }

    /// (Re)positions the cursor at the start of a request without touching
    /// buffer capacities. `enabled` gates whether the traversal starts at
    /// all.
    fn start(&mut self, bound_values: &[Value], clip: Option<FInterval>, enabled: bool) {
        self.vb.clear();
        self.vb.extend_from_slice(bound_values);
        self.clip = clip;
        self.stack.clear();
        self.bounds.clear();
        self.join_active = false;
        self.boxes_active = false;
        self.next_box = 0;
        self.emit_from_join = false;
        if enabled {
            if let Some(t) = &self.s.tree {
                // `v_b`'s root entry, resolved once per request.
                let entry = self.s.dict.candidate(bound_values);
                self.stack.push(Frame::Enter(t.root(), entry));
                self.bounds.resize(self.s.sizes.len(), 0);
                self.bounds.extend(self.s.sizes.iter().map(|&n| n - 1));
            }
        }
    }

    /// Rewinds the cursor to a fresh access request, keeping all scratch.
    /// With [`Theorem1Iter::advance`] / [`Theorem1Iter::current`] this is
    /// the step-wise interface Theorem 2's bags drive.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub(crate) fn reset(&mut self, bound_values: &[Value]) -> Result<()> {
        self.s.view.check_access(bound_values)?;
        self.start(bound_values, None, true);
        Ok(())
    }

    /// Rewinds the cursor to `(⋈_F R_F(v_b)) ⋉ I` for one node interval
    /// `I`: the `⊥` branch of Algorithm 2 alone, box by box, with no tree
    /// walk around it. `bound_values` must have one value per bound
    /// variable (a dictionary candidate does). Theorem 1 maintenance
    /// re-probes node intervals through it.
    pub(crate) fn reset_interval(&mut self, bound_values: &[Value], interval: &FInterval) {
        self.start(bound_values, None, false);
        box_decomposition_ranks(&interval.lo, &interval.hi, &self.s.sizes, &mut self.boxes);
        self.boxes_active = true;
    }

    /// Steps to the next answer; `true` when one is available via
    /// [`Theorem1Iter::current`].
    pub(crate) fn advance(&mut self) -> bool {
        use crate::fbox::lex_cmp_ranks;
        use std::cmp::Ordering;
        let s = self.s;
        loop {
            // 1. Drain the active join (the `⊥` branch's current box).
            if self.join_active {
                let j = self.join.as_mut().expect("active join exists");
                if j.next().is_some() {
                    self.emit_from_join = true;
                    return true;
                }
                self.join_active = false;
            }
            // 2. Seed the join with the next non-empty box, if any.
            if self.boxes_active {
                let mut seeded = false;
                while self.next_box < self.boxes.len() {
                    let i = self.next_box;
                    self.next_box += 1;
                    if self.boxes.get(i).is_empty() {
                        continue;
                    }
                    let Theorem1Iter {
                        boxes,
                        cons,
                        vb,
                        join,
                        ..
                    } = self;
                    let b = boxes.get(i);
                    cons.clear();
                    cons.extend(vb.iter().map(|&v| LevelConstraint::Fixed(v)));
                    free_constraints_into(&s.domains, b, s.plan.num_free(), cons);
                    match join {
                        Some(j) => j.reset(cons),
                        None => *join = Some(s.plan.join(cons.clone())),
                    }
                    seeded = true;
                    break;
                }
                if seeded {
                    self.join_active = true;
                    continue;
                }
                self.boxes_active = false;
            }
            // 3. Pop the next traversal frame.
            let Some(tree) = s.tree() else {
                return false;
            };
            let mu = s.sizes.len();
            match self.stack.pop() {
                None => return false,
                Some(Frame::Enter(c, entry)) => {
                    // The node's endpoints come off `bounds` into stack
                    // scratch; a `1` node decodes its split point beside
                    // them.
                    let (mut inline, mut spill) = ([0; 3 * INLINE_MU], Vec::new());
                    let ranks = rank_scratch(&mut inline, &mut spill, 3 * mu);
                    let (interval, beta) = ranks.split_at_mut(2 * mu);
                    let at = self.bounds.len() - 2 * mu;
                    interval.copy_from_slice(&self.bounds[at..]);
                    self.bounds.truncate(at);
                    let (node_lo, node_hi) = interval.split_at(mu);
                    // Clip the node's interval to the requested range. The
                    // clipped endpoints are whole-tuple lexicographic
                    // max/min, so they are *borrowed* from either side —
                    // no `FInterval` is materialized.
                    let (lo, hi) = match &self.clip {
                        None => (node_lo, node_hi),
                        Some(clip) => {
                            let lo = if lex_cmp_ranks(node_lo, &clip.lo) == Ordering::Less {
                                &clip.lo[..]
                            } else {
                                node_lo
                            };
                            let hi = if lex_cmp_ranks(node_hi, &clip.hi) == Ordering::Greater {
                                &clip.hi[..]
                            } else {
                                node_hi
                            };
                            if lex_cmp_ranks(lo, hi) == Ordering::Greater {
                                continue; // disjoint from the range
                            }
                            (lo, hi)
                        }
                    };
                    match s.dict.lookup(entry) {
                        // ⊥: evaluate the (clipped) interval directly; cost
                        // bounded by τ_ℓ since the pair is light and
                        // T(v_b, ·) is monotone under clipping.
                        None => {
                            box_decomposition_ranks(lo, hi, &s.sizes, &mut self.boxes);
                            self.next_box = 0;
                            self.boxes_active = true;
                        }
                        // 0: provably empty, skip the subtree.
                        Some(false) => {}
                        // 1: in-order recursion; each child's entry is one
                        // child bit of this one.
                        Some(true) => {
                            let node = tree.node(c, node_lo, node_hi, beta);
                            let beta: &[usize] = beta;
                            assert!(!node.is_leaf(), "leaves hold no heavy pair");
                            let e = entry.expect("a stored bit has an entry");
                            let bounds = &mut self.bounds;
                            if let Some(r) = node.right {
                                tree.child_interval_into(true, node_lo, node_hi, beta, bounds);
                                self.stack
                                    .push(Frame::Enter(r, s.dict.child(e, Side::Right)));
                            }
                            bounds.extend_from_slice(beta);
                            self.stack.push(Frame::Point);
                            if let Some(l) = node.left {
                                tree.child_interval_into(false, node_lo, node_hi, beta, bounds);
                                self.stack
                                    .push(Frame::Enter(l, s.dict.child(e, Side::Left)));
                            }
                        }
                    }
                }
                Some(Frame::Point) => {
                    let at = self.bounds.len() - mu;
                    let beta = &self.bounds[at..];
                    let clipped = self.clip.as_ref().is_some_and(|clip| !clip.contains(beta));
                    if !clipped {
                        ranks_to_values_into(&s.domains, beta, &mut self.point);
                    }
                    self.bounds.truncate(at);
                    if clipped {
                        continue;
                    }
                    if s.point_in_join(&self.vb, &self.point, &mut self.probe) {
                        self.emit_from_join = false;
                        return true;
                    }
                }
            }
        }
    }

    /// The answer produced by the last successful [`Theorem1Iter::advance`]
    /// (free-variable values, enumeration order), borrowed from the
    /// cursor's scratch.
    pub(crate) fn current(&self) -> &[Value] {
        if self.emit_from_join {
            let nb = self.s.plan.num_bound;
            &self.join.as_ref().expect("join emitted last").current()[nb..]
        } else {
            &self.point
        }
    }

    /// Pushes every remaining answer into `sink`, honoring early stops.
    ///
    /// The `⊥`-branch hot loop is specialized: while a box's join is
    /// draining, answers flow `join → sink` directly instead of
    /// re-entering the traversal state machine per answer.
    fn drain_into(&mut self, sink: &mut impl cqc_common::AnswerSink) {
        let nb = self.s.plan.num_bound;
        loop {
            if self.join_active {
                let j = self.join.as_mut().expect("active join exists");
                while let Some(t) = j.next() {
                    if !sink.push(&t[nb..]) {
                        return;
                    }
                }
                self.join_active = false;
            }
            if !self.advance() {
                return;
            }
            if !sink.push(self.current()) {
                return;
            }
        }
    }
}

/// The smallest grid rank-tuple whose value tuple is lexicographically
/// `>= vals`, or `None` when every grid tuple is smaller.
fn grid_ceil(domains: &[Domain], vals: &[Value]) -> Option<Vec<usize>> {
    let mu = domains.len();
    let mut ranks = Vec::with_capacity(mu);
    for i in 0..mu {
        let d = &domains[i];
        let r = d.rank_ceil(vals[i]);
        if r >= d.len() {
            // No value at this coordinate can reach vals[i] with the exact
            // prefix: bump the prefix and floor-fill the rest.
            return bump_up(&mut ranks, domains).then(|| {
                ranks.resize(mu, 0);
                ranks
            });
        }
        ranks.push(r);
        if d.value(r) > vals[i] {
            // Strictly above: everything after can be minimal.
            ranks.resize(mu, 0);
            return Some(ranks);
        }
    }
    Some(ranks)
}

/// The largest grid rank-tuple whose value tuple is lexicographically
/// `<= vals`, or `None` when every grid tuple is larger.
fn grid_floor(domains: &[Domain], vals: &[Value]) -> Option<Vec<usize>> {
    let mu = domains.len();
    let mut ranks = Vec::with_capacity(mu);
    for i in 0..mu {
        let d = &domains[i];
        match d.rank_floor(vals[i]) {
            None => {
                // No value small enough at this coordinate: borrow from the
                // prefix and ceil-fill the rest.
                return bump_down(&mut ranks, domains).then(|| {
                    for d in domains.iter().take(mu).skip(ranks.len()) {
                        ranks.push(d.len() - 1);
                    }
                    ranks
                });
            }
            Some(r) => {
                ranks.push(r);
                if d.value(r) < vals[i] {
                    while ranks.len() < mu {
                        ranks.push(domains[ranks.len()].len() - 1);
                    }
                    return Some(ranks);
                }
            }
        }
    }
    Some(ranks)
}

/// Increments the rank prefix (with carry); `false` on overflow.
fn bump_up(prefix: &mut Vec<usize>, domains: &[Domain]) -> bool {
    while let Some(last) = prefix.pop() {
        let pos = prefix.len();
        if last + 1 < domains[pos].len() {
            prefix.push(last + 1);
            return true;
        }
    }
    false
}

/// Decrements the rank prefix (with borrow); `false` on underflow.
fn bump_down(prefix: &mut Vec<usize>, _domains: &[Domain]) -> bool {
    while let Some(last) = prefix.pop() {
        if last > 0 {
            prefix.push(last - 1);
            return true;
        }
    }
    false
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::tests::running_example;
    use cqc_common::value::{lex_cmp, Tuple};
    use cqc_common::AnswerBlock;
    use cqc_join::naive::evaluate_view;
    use cqc_query::parser::parse_adorned;
    use cqc_storage::Relation;

    /// The request's answers, in the order a fresh cursor pushes them.
    fn answers(s: &Theorem1Structure, vb: &[Value]) -> Vec<Tuple> {
        let mut block = AnswerBlock::new();
        s.enumerator().answer_into(vb, &mut block).unwrap();
        block.to_tuples()
    }

    /// The first-answer probe a Theorem 2 structure runs on its bag.
    fn exists(s: &Theorem1Structure, vb: &[Value]) -> bool {
        let mut it = s.enumerator();
        it.reset(vb).unwrap();
        it.advance()
    }

    /// The answers of a range-restricted request, in the order pushed.
    fn range_answers(
        s: &Theorem1Structure,
        vb: &[Value],
        lo: &[Value],
        hi: &[Value],
    ) -> Result<Vec<Tuple>> {
        let mut block = AnswerBlock::new();
        s.enumerator().answer_range_into(vb, lo, hi, &mut block)?;
        Ok(block.to_tuples())
    }

    #[test]
    fn running_example_access_matches_oracle_for_all_taus() {
        let (view, db) = running_example();
        for tau in [1.0, 2.0, 4.0, 8.0, 1e6] {
            let s = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], tau).unwrap();
            assert!((s.alpha() - 2.0).abs() < 1e-9, "Example 4 slack is 2");
            for w1 in 0..4u64 {
                for w2 in 0..3u64 {
                    for w3 in 0..3u64 {
                        let vb = [w1, w2, w3];
                        let expect = evaluate_view(&view, &db, &vb).unwrap();
                        let got = answers(&s, &vb);
                        assert_eq!(got, expect, "τ={tau}, v_b={vb:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn example_5_shapes() {
        // Example 5: u = (1,1,1), τ = √N: delay knob √5 ≈ 2.23 on the tiny
        // instance — just verify the structure builds and answers.
        let (view, db) = running_example();
        let s = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], 5.0f64.sqrt()).unwrap();
        let got = answers(&s, &[1, 1, 1]);
        assert_eq!(got, vec![vec![1, 1, 2], vec![1, 2, 1], vec![1, 2, 2]]);
    }

    #[test]
    fn output_is_lexicographic_and_duplicate_free() {
        let (view, db) = running_example();
        let s = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], 2.0).unwrap();
        let got = answers(&s, &[1, 1, 1]);
        for w in got.windows(2) {
            assert!(
                lex_cmp(&w[0], &w[1]) == std::cmp::Ordering::Less,
                "strictly increasing output"
            );
        }
    }

    #[test]
    fn triangle_all_patterns_match_oracle() {
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
        for pattern in ["fff", "bff", "fbf", "ffb", "bbf", "bfb", "fbb"] {
            let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
            let nb = pattern.chars().filter(|c| *c == 'b').count();
            for tau in [1.0, 3.0, 100.0] {
                let s = Theorem1Structure::build(&view, &db, &[0.5, 0.5, 0.5], tau).unwrap();
                // All bound assignments over a small candidate grid.
                let grid: Vec<u64> = (0..6).collect();
                let mut reqs: Vec<Vec<u64>> = vec![vec![]];
                for _ in 0..nb {
                    reqs = reqs
                        .iter()
                        .flat_map(|r| {
                            grid.iter().map(move |&v| {
                                let mut r2 = r.clone();
                                r2.push(v);
                                r2
                            })
                        })
                        .collect();
                }
                for req in reqs {
                    let expect = evaluate_view(&view, &db, &req).unwrap();
                    let got = answers(&s, &req);
                    assert_eq!(got, expect, "pattern={pattern} τ={tau} req={req:?}");
                    assert_eq!(
                        exists(&s, &req),
                        !expect.is_empty(),
                        "exists, pattern={pattern}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_domain_view_always_empty() {
        // x and y have empty active domains (R is empty): no tree is built
        // and every request answers empty.
        let mut db = Database::new();
        db.add(Relation::new("R", 2, vec![])).unwrap();
        let view = parse_adorned("Q(x, y) :- R(x, y)", "bf").unwrap();
        let s = Theorem1Structure::build(&view, &db, &[1.0], 2.0).unwrap();
        assert!(s.tree().is_none());
        let got = answers(&s, &[1]);
        assert!(got.is_empty());
        assert!(!exists(&s, &[7]));
    }

    #[test]
    fn empty_relation_with_live_domains_still_answers_empty() {
        // R is empty but y's domain is fed by S, so the tree may exist; the
        // answers must still be empty everywhere.
        let mut db = Database::new();
        db.add(Relation::new("R", 2, vec![])).unwrap();
        db.add(Relation::from_pairs("S", vec![(1, 2)])).unwrap();
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bff").unwrap();
        let s = Theorem1Structure::build(&view, &db, &[1.0, 1.0], 2.0).unwrap();
        for x in 0..3u64 {
            let got = answers(&s, &[x]);
            assert!(got.is_empty());
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let (view, db) = running_example();
        // τ < 1, or no number at all.
        assert!(Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], 0.5).is_err());
        assert!(Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], f64::NAN).is_err());
        // Not a cover (w1 not covered).
        assert!(Theorem1Structure::build(&view, &db, &[0.0, 1.0, 1.0], 2.0).is_err());
        // Wrong weight count.
        assert!(Theorem1Structure::build(&view, &db, &[1.0, 1.0], 2.0).is_err());
        // All-bound view.
        let v = parse_adorned(
            "Q(x, y, z, w1, w2, w3) :- R1(w1, x, y), R2(w2, y, z), R3(w3, x, z)",
            "bbbbbb",
        )
        .unwrap();
        assert!(Theorem1Structure::build(&v, &db, &[1.0, 1.0, 1.0], 2.0).is_err());
    }

    #[test]
    fn answer_range_matches_filtered_answer() {
        let (view, db) = running_example();
        for tau in [1.0, 4.0, 64.0] {
            let s = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], tau).unwrap();
            let vbs: Vec<[u64; 3]> = vec![[1, 1, 1], [1, 2, 1], [2, 1, 2], [3, 2, 2]];
            // Range endpoints including values outside the active domains
            // (0 and 5 are not domain members).
            let ranges: Vec<([u64; 3], [u64; 3])> = vec![
                ([1, 1, 1], [2, 2, 2]),
                ([1, 1, 2], [1, 2, 1]),
                ([0, 0, 0], [5, 5, 5]),
                ([1, 2, 0], [2, 0, 5]),
                ([2, 2, 2], [1, 1, 1]), // empty (inverted)
                ([1, 1, 1], [1, 1, 1]),
            ];
            for vb in &vbs {
                let full = answers(&s, vb);
                for (lo, hi) in &ranges {
                    let got = range_answers(&s, vb, lo, hi).unwrap();
                    let expect: Vec<Tuple> = full
                        .iter()
                        .filter(|t| t.as_slice() >= &lo[..] && t.as_slice() <= &hi[..])
                        .cloned()
                        .collect();
                    assert_eq!(got, expect, "τ={tau} vb={vb:?} range=[{lo:?},{hi:?}]");
                }
            }
        }
    }

    /// Nine free variables: more than the on-stack rank scratch holds, so
    /// every visited node spills. Answers and range clips still match the
    /// oracle.
    #[test]
    fn wide_view_spills_rank_scratch_and_matches_oracle() {
        let leaves = INLINE_MU + 1;
        let mut db = Database::new();
        let mut rng = cqc_workload::rng(3);
        for i in 1..=leaves {
            db.add(cqc_workload::uniform_relation(
                &mut rng,
                &format!("R{i}"),
                2,
                5,
                2,
            ))
            .unwrap();
        }
        let head: Vec<String> = (1..=leaves).map(|i| format!("a{i}")).collect();
        let body: Vec<String> = (1..=leaves).map(|i| format!("R{i}(x,a{i})")).collect();
        let query = format!("Q(x,{}) :- {}", head.join(","), body.join(", "));
        let view = parse_adorned(&query, &format!("b{}", "f".repeat(leaves))).unwrap();
        assert!(view.mu() > INLINE_MU);
        for tau in [1.0, 4.0] {
            let s = Theorem1Structure::build(&view, &db, &vec![1.0; leaves], tau).unwrap();
            assert!(
                s.stats().dict_entries > 0,
                "τ={tau}: 1-nodes must be walked"
            );
            for x in 0..2u64 {
                let expect = evaluate_view(&view, &db, &[x]).unwrap();
                assert!(expect.len() > 1, "x={x}");
                let got = answers(&s, &[x]);
                assert_eq!(got, expect, "τ={tau} x={x}");
                let (lo, hi) = (&expect[1], &expect[expect.len() / 2]);
                let got = range_answers(&s, &[x], lo, hi).unwrap();
                assert_eq!(got, expect[1..=expect.len() / 2], "τ={tau} x={x} clipped");
            }
        }
    }

    #[test]
    fn answer_range_validates_arity() {
        let (view, db) = running_example();
        let s = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], 2.0).unwrap();
        assert!(range_answers(&s, &[1, 1, 1], &[1, 1], &[2, 2, 2]).is_err());
        assert!(range_answers(&s, &[1, 1], &[1, 1, 1], &[2, 2, 2]).is_err());
    }

    #[test]
    fn space_breakdown_separates_terms() {
        let (view, db) = running_example();
        let tight = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], 1.0).unwrap();
        let loose = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], 1e6).unwrap();
        let bt = tight.space_breakdown();
        let bl = loose.space_breakdown();
        // The linear term is τ-independent; the non-linear term shrinks.
        assert_eq!(bt.base_index_bytes, bl.base_index_bytes);
        assert!(bt.nonlinear_bytes() >= bl.nonlinear_bytes());
        assert_eq!(bt.total_bytes(), bt.base_index_bytes + bt.nonlinear_bytes());
    }

    #[test]
    fn space_shrinks_as_tau_grows() {
        let (view, db) = running_example();
        let tight = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], 1.0).unwrap();
        let loose = Theorem1Structure::build(&view, &db, &[1.0, 1.0, 1.0], 16.0).unwrap();
        assert!(tight.stats().tree_nodes >= loose.stats().tree_nodes);
        assert!(tight.stats().dict_entries >= loose.stats().dict_entries);
    }

    /// FNV-1a (64 bits) of `h` extended by each word's little-endian
    /// bytes.
    fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// FNV-1a of the whole top-down walk of `s` as a walk sees it, no node
    /// id in it: per node, in left-first pre-order, its level, interval,
    /// leaf flag and which children exist, then its dictionary entries,
    /// each `v_b` and bit (ascending `v_b`).
    pub(crate) fn walk_fnv(s: &Theorem1Structure) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        let Some(tree) = s.tree() else {
            return h;
        };
        let dict = s.dictionary();
        let mut vb = Vec::new();
        dict.walk(tree, |step| {
            let (node, interval) = (step.node, step.interval);
            h = fnv(h, [u64::from(step.cursor.level)]);
            h = fnv(h, interval.lo.iter().chain(&interval.hi).map(|&r| r as u64));
            h = fnv(
                h,
                [
                    u64::from(node.is_leaf()),
                    u64::from(node.left.is_some()),
                    u64::from(node.right.is_some()),
                ],
            );
            for e in step.entries {
                dict.candidate_into(e.cand, &mut vb);
                h = fnv(h, vb.iter().copied().chain([u64::from(dict.bit(e.entry))]));
            }
            true
        });
        h
    }

    /// The walk — every node's level, interval, leaf flag and which
    /// children exist, every entry and bit, in left-first pre-order —
    /// hashed on the triangle at three patterns and three τ and on a star,
    /// each over uniform data. No node id enters the hash, so a layout
    /// that renumbers the nodes must leave it unmoved. The stored tree is
    /// the build's with every subtree below an internal node that holds no
    /// entry cut (that node a leaf): each pin is the unpruned tree's walk,
    /// cut so, and hashed. Each was taken on the build that stored every
    /// Def.-3-heavy pair reachable through a `1`, with every pair whose
    /// `⊥` run finds an answer within 16 · τ units, and what lies below it,
    /// filtered out; τ = 1 was added when `bfb` at τ = 2 lost its tree.
    #[test]
    fn walk_is_pinned() {
        let (relations, _) = cqc_workload::triangle_relations(7, 400);
        let mut db = Database::new();
        for r in relations {
            db.add(r).unwrap();
        }
        let mut got = Vec::new();
        for pattern in ["bff", "bfb", "fff"] {
            let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
            for tau in [1.0, 2.0, 8.0, 64.0] {
                let s = Theorem1Structure::build(&view, &db, &[0.5; 3], tau).unwrap();
                got.push((pattern, tau, s.stats().tree_nodes, walk_fnv(&s)));
            }
        }
        let mut rng = cqc_workload::rng(11);
        let mut star_db = Database::new();
        for name in ["R1", "R2", "R3"] {
            star_db
                .add(cqc_workload::uniform_relation(&mut rng, name, 2, 400, 40))
                .unwrap();
        }
        let star = cqc_workload::queries::star(3, "bbff").unwrap();
        let s = Theorem1Structure::build(&star, &star_db, &[1.0; 3], 8.0).unwrap();
        got.push(("star bbff", 8.0, s.stats().tree_nodes, walk_fnv(&s)));
        let pinned = [
            ("bff", 1.0, 270, 14_461_676_422_025_125_672),
            ("bff", 2.0, 69, 1_726_886_890_364_142_575),
            ("bff", 8.0, 7, 2_233_644_789_656_954_215),
            ("bff", 64.0, 1, 17_269_986_037_842_137_956),
            ("bfb", 1.0, 7, 825_987_502_169_313_112),
            ("bfb", 2.0, 1, 875_044_188_236_279_715),
            ("bfb", 8.0, 1, 875_044_188_236_279_715),
            ("bfb", 64.0, 1, 875_044_188_236_279_715),
            ("fff", 1.0, 2150, 11_980_014_663_352_234_785),
            ("fff", 2.0, 692, 955_082_881_833_180_547),
            ("fff", 8.0, 127, 18_280_682_452_238_469_575),
            ("fff", 64.0, 15, 7_782_372_711_050_534_599),
            ("star bbff", 8.0, 31, 17_561_311_966_882_295_352),
        ];
        assert_eq!(got, pinned);
    }

    /// The stored tree is the build's with every subtree below an internal
    /// node that holds no entry cut, node for node: the same nodes in the
    /// same slot order, each at its level and interval, with its split
    /// point where it holds an entry and none where it holds none. The
    /// oracle is `DelayBalancedTree::build`, the whole tree, cut below
    /// every node that is not a stored node holding an entry (matched by
    /// level and interval); over the triangle at three patterns and three
    /// τ and a star. The build splits only the nodes its walk reaches, so
    /// it spends no more count probes than the whole tree, and at τ = 2 at
    /// most a third of them.
    #[test]
    fn the_stored_tree_is_the_built_tree_cut_below_entryless_nodes() {
        use crate::cost::CostEstimator;
        use std::collections::BTreeSet;
        let (relations, _) = cqc_workload::triangle_relations(7, 400);
        let mut db = Database::new();
        for r in relations {
            db.add(r).unwrap();
        }
        let mut cases = Vec::new();
        for pattern in ["bff", "bfb", "fff"] {
            let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
            for tau in [2.0, 8.0, 64.0] {
                cases.push((view.clone(), &db, vec![0.5; 3], tau));
            }
        }
        let mut rng = cqc_workload::rng(11);
        let mut star_db = Database::new();
        for name in ["R1", "R2", "R3"] {
            star_db
                .add(cqc_workload::uniform_relation(&mut rng, name, 2, 400, 40))
                .unwrap();
        }
        let star = cqc_workload::queries::star(3, "bbff").unwrap();
        cases.push((star, &star_db, vec![1.0; 3], 8.0));
        let mut cut = 0;
        for (view, db, weights, tau) in cases {
            let ctx = format!("{} τ={tau}", view.pattern());
            let s = Theorem1Structure::build(&view, db, &weights, tau).unwrap();
            let est = CostEstimator::build(&view, db, &weights, s.alpha()).unwrap();
            let built = DelayBalancedTree::build(&est, tau).unwrap();
            let stored = s.tree().unwrap();
            // The stored nodes that hold an entry, by level and interval,
            // and the whole tree's slots that are those nodes.
            let mut holding = BTreeSet::new();
            s.dictionary().walk(stored, |step| {
                if !step.entries.is_empty() {
                    let FInterval { lo, hi } = step.interval.clone();
                    holding.insert((step.cursor.level, lo, hi));
                }
                true
            });
            let held: BTreeSet<u32> = built
                .cursors()
                .filter(|c| {
                    let FInterval { lo, hi } = built.interval(*c);
                    holding.contains(&(c.level, lo, hi))
                })
                .map(|c| c.node)
                .collect();
            assert_eq!(
                held.len(),
                holding.len(),
                "{ctx}: each one is a node of the whole tree"
            );
            // Slot order is parents first: a node is kept iff the root, or
            // its parent is kept and holds an entry.
            let mut kept = BTreeSet::from([0]);
            let mut expect = Vec::new();
            for c in built.cursors() {
                if !kept.contains(&c.node) {
                    continue;
                }
                let FInterval { lo, hi } = built.interval(c);
                let node = built.node(c, &lo, &hi, &mut vec![0; lo.len()]);
                let holds = held.contains(&c.node);
                if holds {
                    kept.extend(
                        [node.left, node.right]
                            .into_iter()
                            .flatten()
                            .map(|c| c.node),
                    );
                }
                let beta = built.beta(c.node).filter(|_| holds);
                expect.push((c.level, FInterval { lo, hi }, beta));
            }
            let got: Vec<_> = stored
                .cursors()
                .map(|c| (c.level, stored.interval(c), stored.beta(c.node)))
                .collect();
            assert_eq!(got, expect, "{ctx}");
            assert_eq!(stored.len(), expect.len(), "{ctx}");
            // The build split only what its walk reached: never more than
            // the whole tree, and at τ = 2 a third of it at most.
            let (split, whole) = (stored.build_count_probes(), built.build_count_probes());
            assert!(
                split <= whole,
                "{ctx}: {split} count probes, the whole tree's {whole}"
            );
            if tau == 2.0 {
                assert!(
                    3 * split <= whole,
                    "{ctx}: {split} count probes, the whole tree's {whole}"
                );
            }
            // Every stored internal node holds an entry.
            s.dictionary().walk(stored, |step| {
                assert_eq!(step.node.is_leaf(), step.entries.is_empty(), "{ctx}");
                true
            });
            cut += built.len() - stored.len();
        }
        assert!(cut > 0, "some subtree must be cut");
    }

    /// The worst case for slot padding: a tree with no leaf. The ledger's
    /// `exp1 … theorem 1 tau=1` row builds one, `2·195 + 1` slots for its
    /// 195 nodes, in less than the 448 B it took with a right-child id per
    /// internal node. Only 22 of its internal nodes hold an entry (93 under
    /// Def. 3 alone, before the pairs light by work went), so the stored
    /// tree is those and their children, 23 of them leaves — and smaller
    /// still.
    #[test]
    fn an_all_internal_tree_is_no_larger_than_with_right_ids() {
        use crate::cost::CostEstimator;
        let mut rng = cqc_workload::rng(1);
        let mut db = Database::new();
        db.add(cqc_workload::graphs::friendship_graph(
            &mut rng, 200, 1500, 1.0,
        ))
        .unwrap();
        let view = cqc_workload::queries::triangle_self("bfb").unwrap();
        let s = Theorem1Structure::build(&view, &db, &[0.5; 3], 1.0).unwrap();
        let est = CostEstimator::build(&view, &db, s.weights(), s.alpha()).unwrap();
        let built = DelayBalancedTree::build(&est, 1.0).unwrap();
        assert_eq!((built.len(), built.num_leaves()), (195, 0));
        assert!(built.heap_bytes() <= 448, "{} B", built.heap_bytes());
        let st = s.stats();
        assert_eq!((st.tree_nodes, st.tree_leaves), (45, 23));
        assert!(st.tree_bytes < built.heap_bytes(), "{} B", st.tree_bytes);
    }
}
