//! The heavy-pair dictionary **D** (§4.3 step 2, Appendix A).
//!
//! For a tree node `w` at level `ℓ` and a bound valuation `v_b`, Def. 3
//! calls `(v_b, w)` *τ_ℓ-heavy* when `T(v_b, I(w)) > τ_ℓ`, and Theorem 1
//! stores one bit for it: whether `(⋈_F R_F(v_b)) ⋉ I(w)` is non-empty.
//! Every other pair has no entry (`⊥`), and Algorithm 2 evaluates it
//! directly at query time.
//!
//! `T` is a worst-case product of counts, and on skewed data it overshoots
//! what that direct evaluation costs by orders of magnitude. So the build
//! stores a pair only when Def. 3 calls it heavy *and* its work agrees: it
//! runs the pair's restricted join over `I(w)`'s boxes — Algorithm 2's `⊥`
//! branch, on the same join, counted in the serve path's own work units —
//! and stops once the count passes [`LIGHT_WORK_CAP`]` · τ` (the view's τ,
//! not τ_ℓ, so no level serves a `⊥` node for more). A pair whose run
//! finishes under that cap *with an answer* is left `⊥`: an unclipped `⊥`
//! node then costs at most `16 · τ` units and shows an answer for them. A
//! pair whose join is empty keeps its `0` whatever its run cost: a `⊥` node
//! that answers nothing spends its whole run inside one gap between
//! answers, and a run of such siblings adds up (the ledger's exp7 τ = 16
//! row measured a worst gap of 272 units that way, against 238 with every
//! pair stored), while a stored `0` costs one lookup. The stored set is a
//! subset of Def. 3's, so space stays within Theorem 1's bound.
//!
//! In a Theorem 2 bag an answer of the bag's join is an answer only when
//! it extends into every child bag (Algorithm 4): the run probes the
//! children below each answer, those probes count toward the cap, and a
//! pair none of whose answers extends keeps its `0` like an empty one. So
//! a `⊥` node in a bag also answers within the cap, where counting the
//! bag's own answers let a `⊥` node run through answers its children then
//! dropped (exp7's Theorem 2 δ = (0.25, 0.25) row read a worst gap of 325
//! units that way, against 314 with every pair stored; 306 now).
//!
//! Why c = 16 and the view's τ (docs/MEASUREMENTS.md): over the ledger's
//! Theorem 1 rows that had a dictionary, c = 4 keeps 596 824 B of tree and
//! dictionary, c = 16 keeps 79 528 and c = 32 16 904; a cap of `16 · τ_ℓ`
//! keeps 197 624. None of them raises a row's worst gap. But c = 32 raises
//! the benchmark's worst `tri_lo` delay from 163 work units to 186, where
//! c = 16 lowers it to 131: 16 is the largest c tried that does not.
//!
//! Construction follows Appendix A: candidate valuations are the distinct
//! `V_b`-prefixes of the join of the bound-touching atoms `E_{V_b}`
//! restricted to `I(w)` (Prop. 13), enumerated with prefix-skipping
//! leapfrog joins. The capped run of a heavy candidate also decides its
//! bit: its boxes come in lexicographic order, so its first answer is the
//! lexicographic minimum of the restricted join in `I(w)`, found instead of
//! streaming the complete join output (Algorithm 3) and bounded by the same
//! `T(v_b, I(w))` quantity (docs/ARCHITECTURE.md, "Theorem 1 build").
//!
//! Only pairs Algorithm 2 can reach are stored. It starts at the root and
//! recurses only on a stored `1`, so a pair is stored iff it is stored by
//! the rule above at `w` and `w`'s parent stores a `1` for its candidate
//! (at the root: iff stored by the rule). A pair below a `⊥` or below a
//! `0` is never read and is dropped; so are the `0`s such a subtree would
//! hold, since an empty interval has empty halves. Every node's candidates
//! are then a subset of its parent's, and a child's list is stored as two
//! bits over each of its parent's entries (docs/ARCHITECTURE.md, "Theorem 1
//! memory layout").

use crate::cost::CostEstimator;
use crate::dbtree::{child_interval_into, Cursor, DelayBalancedTree, Node, Place, TreeBuild};
use crate::fbox::{CanonicalBox, FInterval};
use cqc_common::heap::HeapSize;
use cqc_common::metrics::{self, BuildPhase};
use cqc_common::packed::{Packed, RankedBits};
use cqc_common::util::approx_gt;
use cqc_common::value::Value;
use cqc_join::leapfrog::LevelConstraint;
use cqc_join::plan::ViewPlan;
use cqc_storage::Domain;
use std::cmp::Ordering;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// *Which* pairs are heavy: fixed at build time, because maintenance only
/// ever flips the bits of existing entries. Shared
/// by `Arc` between a structure and its delta-maintained successors.
///
/// Entries are numbered breadth-first: the root's are `0..num_cands`, one
/// per candidate in candidate order, and every other entry is
/// `num_cands + rank(p)`, `p` the child bit that names it.
#[derive(Debug)]
struct DictKeys {
    /// `|V_b|`: values per candidate.
    nb: usize,
    /// Number of candidates, which are the root's entries (kept
    /// explicitly: `nb` may be 0).
    num_cands: usize,
    /// The candidate valuations the root stores, in bound-head order,
    /// sorted and distinct, `nb` values each ([`Packed`] at the width its
    /// largest value needs); a candidate's id is its position, which is
    /// also its root entry.
    cand_values: Packed,
    /// Two bits per entry: bit `2e` is set when the left child of entry
    /// `e`'s node stores `e`'s candidate, bit `2e + 1` when the right child
    /// does.
    children: RankedBits,
    /// What the build spent finding them.
    work: DictBuildWork,
}

/// Deterministic work counts of one [`HeavyDictionary::build`]: the same
/// instance always reports the same numbers, on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DictBuildWork {
    /// Root candidate valuations (Prop. 13) the build started from. Those
    /// the root does not store are not kept (see
    /// [`HeavyDictionary::num_candidates`]).
    pub candidates: u64,
    /// `(candidate, node)` pairs whose `T(v_b, I(w))` was evaluated.
    pub evaluations: u64,
    /// Restricted joins run for heavy pairs (one per canonical box
    /// seeded): each pair's capped run, which also finds its bit.
    pub probes: u64,
    /// Def.-3-heavy pairs whose capped run found an answer that reaches
    /// the output and finished within [`LIGHT_WORK_CAP`]`·τ` work units,
    /// left ⊥.
    pub light_by_work: u64,
    /// Work units (trie seeks) the capped runs spent, each up to its cap or,
    /// past it, up to the answer that decides its bit.
    pub capped_work: u64,
}

/// A Def.-3-heavy pair whose restricted join finds an answer and finishes
/// within `LIGHT_WORK_CAP · τ` counted work units is left ⊥ (module docs).
pub const LIGHT_WORK_CAP: f64 = 16.0;

/// What a node knows about `(⋈ R_F(v_b)) ⋉ I(w)` for one surviving
/// candidate before it probes anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Witness {
    /// No probe has covered `I(w)` yet.
    Unknown,
    /// The restricted join has no answer in `I(w)`.
    Empty,
    /// The survivor's `first` slot holds the lexicographically first
    /// answer in `I(w)` (free values, enumeration order).
    First,
}

/// Which child of its parent a node is: also the offset of that child's
/// bit in an entry's pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Left,
    Right,
}

impl Witness {
    /// A child's knowledge, given its parent's first answer `first` (a node
    /// passes down only its `1`s, so every survivor below the root carries
    /// one) and the child's endpoints `lo`/`hi` in value space. The children
    /// split the parent's interval around `β`, so: a first answer inside
    /// the child is also the child's first; one beyond the left child's
    /// upper end leaves the left child empty (every answer is at least the
    /// first); only a right child whose parent's first answer lies at or
    /// before `β` knows nothing.
    fn inherit(side: Side, first: &[Value], lo: &[Value], hi: &[Value]) -> Witness {
        match side {
            Side::Left if first > hi => Witness::Empty,
            Side::Right if first < lo => Witness::Unknown,
            _ => Witness::First,
        }
    }
}

/// The candidates a node passes to its children — the ones it stores as
/// `1` — with their entries there (in build order), ascending ids, and
/// their first answers there.
#[derive(Debug, Default)]
struct Survivors {
    ids: Vec<u32>,
    entries: Vec<u32>,
    /// `µ` values per candidate: the lexicographically first answer of
    /// `(⋈ R_F(v_b)) ⋉ I(w)`. Empty for the root's input list, about which
    /// nothing is known.
    first: Vec<Value>,
}

/// A node's run of entries, as the build stores them in left-first pre-order.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The run's first entry, in build order.
    start: u32,
    level: u16,
    side: Side,
}

impl DictKeys {
    /// Candidate `id`'s valuation against `vb`, value by value.
    #[inline]
    fn cmp_cand(&self, id: usize, vb: &[Value]) -> Ordering {
        let start = id * self.nb;
        for (i, &v) in vb.iter().enumerate() {
            match self.cand_values.get(start + i).cmp(&v) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }

    /// Number of entries: the root's, and one per set child bit.
    fn num_entries(&self) -> usize {
        self.num_cands + self.children.count_ones()
    }
}

/// One stored pair, as a top-down walk ([`HeavyDictionary::walk`]) meets
/// it at its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Its number: the position of its bit.
    pub entry: u32,
    /// Its candidate's id (see [`HeavyDictionary::candidate`]).
    pub cand: u32,
}

/// What [`HeavyDictionary::walk`] shows of one node.
#[derive(Debug)]
pub struct WalkStep<'a> {
    /// The node's cursor.
    pub cursor: Cursor,
    /// Its internal rank and children.
    pub node: Node,
    /// `I(w)`.
    pub interval: &'a FInterval,
    /// Its entries, ascending by candidate; none at a leaf.
    pub entries: &'a [Entry],
}

/// The dictionary: the keys, and one bit per entry, indexed by entry
/// number.
#[derive(Debug, Clone)]
pub struct HeavyDictionary {
    keys: Arc<DictKeys>,
    /// Bit `e` belongs to entry `e`.
    bits: Vec<u64>,
}

impl HeavyDictionary {
    /// Builds the delay-balanced tree and its dictionary together: the
    /// tree as Algorithm 2 can reach it (module docs of `dbtree`), split
    /// only where the dictionary's walk goes. `None` when some free
    /// variable has an empty active domain.
    ///
    /// # Panics
    ///
    /// Panics if `tau < 1`.
    pub fn build(
        plan: &ViewPlan,
        est: &CostEstimator,
        tau: f64,
    ) -> Option<(DelayBalancedTree, HeavyDictionary)> {
        HeavyDictionary::build_reaching(plan, est, tau, |_| true)
    }

    /// [`HeavyDictionary::build`] where `reaches(row)` says whether an
    /// answer (`[bound | free]`, in level order) reaches the output. In a
    /// view of its own every answer does; in a Theorem 2 bag only one that
    /// extends into every child subtree does (Algorithm 4), and the probe
    /// that tells is run, and counted, for every answer of a capped run, as
    /// Algorithm 5 runs it at a `⊥` node. An answer that does not reach the
    /// output is no answer: it neither makes a pair light by work nor sets
    /// its bit.
    pub(crate) fn build_reaching(
        plan: &ViewPlan,
        est: &CostEstimator,
        tau: f64,
        reaches: impl FnMut(&[Value]) -> bool,
    ) -> Option<(DelayBalancedTree, HeavyDictionary)> {
        HeavyDictionary::build_observed(plan, est, tau, reaches, |_, _, _| {})
    }

    /// [`HeavyDictionary::build_reaching`], reporting each pair as it is
    /// stored: `stored(I(w), v_b, first)`, where `first` is the witness the
    /// bit was decided from — the first answer of `(⋈ R_F(v_b)) ⋉ I(w)`
    /// that `reaches` the output, `None` for a `0` bit.
    fn build_observed(
        plan: &ViewPlan,
        est: &CostEstimator,
        tau: f64,
        reaches: impl FnMut(&[Value]) -> bool,
        stored: impl FnMut(&FInterval, &[Value], Option<&[Value]>),
    ) -> Option<(DelayBalancedTree, HeavyDictionary)> {
        let t_build = Instant::now();
        let mut tree = TreeBuild::new(est, tau)?;
        let root = tree.root_interval();
        // A root leaf (τ at or above `T(root)`, e.g. τ = ∞: the §2.3
        // direct-evaluation extreme) is `⊥` for every valuation, so no root
        // candidate can ever be used: neither joined nor kept.
        let built = if tree.cost(0, &root) {
            let dict = HeavyDictionary::walk_splitting(plan, est, &mut tree, root, reaches, stored);
            (tree.finish(), dict)
        } else {
            (tree.finish(), HeavyDictionary::empty())
        };
        metrics::record_build_phase(BuildPhase::Dictionary, t_build.elapsed().as_nanos() as u64);
        Some(built)
    }

    /// The dictionary's walk over `tree`, whose root, over `root`, is
    /// costed and internal: it costs every other node it reaches, and
    /// splits and keeps the ones that hold an entry.
    fn walk_splitting(
        plan: &ViewPlan,
        est: &CostEstimator,
        tree: &mut TreeBuild<'_>,
        root: FInterval,
        mut reaches: impl FnMut(&[Value]) -> bool,
        mut stored: impl FnMut(&FInterval, &[Value], Option<&[Value]>),
    ) -> HeavyDictionary {
        let sizes = tree.sizes().to_vec();
        // The node under the walk, its interval and split point.
        let mut interval = root;
        let mut beta = Vec::with_capacity(sizes.len());
        let doms = est.domains();
        let nb = plan.num_bound;
        let levels = plan.num_levels();
        let bound_atoms: Vec<usize> = (0..plan.num_atoms())
            .filter(|&i| plan.atom_levels(i).iter().any(|&l| l < nb))
            .collect();
        // Free levels covered by the bound-touching atoms.
        let mut covered = vec![false; levels];
        for &i in &bound_atoms {
            for &l in plan.atom_levels(i) {
                covered[l] = true;
            }
        }

        // 1. Candidate bound valuations at the root (Prop. 13): the
        //    distinct V_b-prefixes of the E_{V_b} join over the full grid.
        //
        //    Candidate sets only shrink down the tree — a node stores a
        //    subset of its parent's — so we enumerate once here and
        //    *filter* along tree edges below, instead of re-running the
        //    join per node (same output, far less work; the per-node join
        //    of Algorithm 3 costs a full worst-case-join per level). One
        //    join is constructed and re-seeded per box via
        //    `LeapfrogJoin::reset`, mirroring the serve-side reuse.
        //    The root's boxes are the ones its split costed.
        let (num_cands, cand_values) = if nb == 0 {
            (1, Vec::new())
        } else {
            // Prefixes arrive sorted and distinct within a box but repeat
            // across boxes.
            let mut raw: Vec<Value> = Vec::new();
            let mut join = plan.join_subset(&bound_atoms, vec![LevelConstraint::Fixed(0); levels]);
            let mut cons: Vec<LevelConstraint> = Vec::with_capacity(levels);
            for b in tree.boxes() {
                cons.clear();
                cons.resize(nb, LevelConstraint::Free);
                free_constraints_into(doms, b, levels - nb, &mut cons);
                // Free levels untouched by E_{V_b} cannot be joined over;
                // fixing them to an arbitrary value drops their (vacuous)
                // constraint and only enlarges the candidate set.
                for (l, c) in cons.iter_mut().enumerate().skip(nb) {
                    if !covered[l] {
                        *c = LevelConstraint::Fixed(0);
                    }
                }
                join.reset(&cons);
                while let Some(t) = join.next() {
                    raw.extend_from_slice(&t[..nb]);
                    join.skip_to_level(nb - 1);
                }
            }
            let mut order: Vec<usize> = (0..raw.len() / nb).collect();
            order.sort_unstable_by_key(|&i| &raw[i * nb..][..nb]);
            order.dedup_by_key(|i| &raw[*i * nb..][..nb]);
            let mut sorted: Vec<Value> = Vec::with_capacity(order.len() * nb);
            for &i in &order {
                sorted.extend_from_slice(&raw[i * nb..][..nb]);
            }
            (order.len(), sorted)
        };
        assert!(u32::try_from(num_cands).is_ok(), "candidate ids fit in u32");
        let cand = |c: u32| &cand_values[c as usize * nb..][..nb];

        // The atoms that actually enter `T(v_b, B)` (û_F > 0), in atom
        // order so products multiply exactly as `t_box_bound` would.
        // Counts of atoms without bound variables are
        // candidate-independent: they are evaluated once per box below,
        // while bound-touching atoms get their `v_b`-prefix row range
        // resolved once per candidate here and only re-narrow the free
        // columns per box — the counts that used to dominate build time.
        let weighted: Vec<usize> = (0..plan.num_atoms())
            .filter(|&ai| est.u_hat(ai) > 1e-12)
            .collect();
        let nw = weighted.len();
        // Candidate `c`'s ranges are `cand_ranges[c * nw..][..nw]`.
        let mut cand_ranges: Vec<(usize, usize)> = Vec::with_capacity(num_cands * nw);
        for c in 0..num_cands as u32 {
            cand_ranges.extend(weighted.iter().map(|&ai| {
                if est.has_bound_cols(ai) {
                    est.bound_range(ai, cand(c))
                } else {
                    est.full_range(ai)
                }
            }));
        }

        // 2. DFS in left-first pre-order. A node is costed when the walk
        //    reaches it. An internal node evaluates `T(v_b, I(w))` for the
        //    candidates its parent stored as `1`, runs the heavy ones'
        //    capped joins, stores those not light by work with their
        //    emptiness bit and passes its `1`s down; it is split
        //    (Algorithm 1) and kept in the tree iff it stores an entry, and
        //    the walk goes on to its children iff it stores a `1`. Three
        //    exact prunings keep that cheap (docs/ARCHITECTURE.md, "Theorem
        //    1 build"):
        //
        //    * unreachable below a light pair or a `0` — Algorithm 2
        //      recurses only on a stored `1`, so a candidate light at a
        //      node (by Def. 3 or by work), or stored there as `0`, is
        //      never read at its descendants, and is dropped; nor is a
        //      node below one that stores no `1` ever costed;
        //    * leaves evaluate nothing — `T(v_b, I(w)) ≤ T(I(w)) < τ_ℓ`
        //      there, so a leaf has no heavy pair;
        //    * witness inheritance — each survivor below the root carries
        //      the lexicographically first answer of `(⋈ R_F(v_b)) ⋉ I(w)`
        //      (its parent stores it as `1`), and a child derives its own
        //      knowledge from it: see `Witness::inherit`.
        //
        //    Entries are stored in visit order ("build order"): per entry
        //    the build-order position of its parent's entry for the same
        //    candidate (a root entry: its own) and its bit, and per node
        //    that stores any, where its run starts. Step 3 renumbers them.
        let mu = levels - nb;
        let mut work = DictBuildWork {
            candidates: num_cands as u64,
            ..DictBuildWork::default()
        };
        let mut parent: Vec<u32> = Vec::new();
        let mut built_bits: Vec<u64> = Vec::new();
        let mut runs: Vec<Run> = Vec::new();
        let mut root_values: Vec<Value> = Vec::new();
        let mut num_roots = 0;
        let mut probe_join = plan.join(vec![LevelConstraint::Fixed(0); levels]);
        // The view's τ, not τ_ℓ: a ⊥ node serves within it at every level.
        let cap = LIGHT_WORK_CAP * tree.tau();
        let mut probe_cons: Vec<LevelConstraint> = Vec::with_capacity(levels);
        // Per box (stride `nw`): `Some(count)` for candidate-independent
        // atoms, `None` for the per-candidate ones; `box_dead` marks boxes
        // that are empty or killed by a zero candidate-independent count
        // (their `T(v_b, B)` is exactly 0 for every candidate).
        let mut free_counts: Vec<Option<f64>> = Vec::new();
        let mut box_dead: Vec<bool> = Vec::new();
        // The node's endpoints in value space, to place witnesses.
        let mut lo_vals: Vec<Value> = Vec::with_capacity(mu);
        let mut hi_vals: Vec<Value> = Vec::with_capacity(mu);
        let mut first: Vec<Value> = Vec::with_capacity(mu);
        let all = Rc::new(Survivors {
            ids: (0..num_cands as u32).collect(),
            ..Survivors::default()
        });
        // (The root's side is never read: it knows no first answer and its
        // entries are nobody's children.) Each pending node's interval is
        // `2µ` ranks in `bounds`, in stack order.
        let mut stack: Vec<(Place, Side, Rc<Survivors>)> = vec![(Place::ROOT, Side::Left, all)];
        let mut bounds: Vec<usize> = interval.lo.iter().chain(&interval.hi).copied().collect();
        while let Some((place, side, cands)) = stack.pop() {
            let at = bounds.len() - 2 * mu;
            interval.lo.copy_from_slice(&bounds[at..at + mu]);
            interval.hi.copy_from_slice(&bounds[at + mu..]);
            bounds.truncate(at);
            // The root was costed before its candidates were found.
            let is_root = place.level == 0;
            if !is_root && !tree.cost(place.level, &interval) {
                continue; // a leaf: no heavy pair
            }
            let threshold = tree.threshold_of(place.level);
            let boxes = tree.boxes();
            free_counts.clear();
            box_dead.clear();
            for b in boxes {
                let mut dead = b.is_empty();
                free_counts.extend(weighted.iter().map(|&ai| {
                    if dead || est.has_bound_cols(ai) {
                        None
                    } else {
                        let c = est.count_box_bound_in(ai, est.full_range(ai), b) as f64;
                        if c == 0.0 {
                            dead = true;
                        }
                        Some(c)
                    }
                }));
                box_dead.push(dead);
            }
            lo_vals.clear();
            lo_vals.extend(interval.lo.iter().zip(doms).map(|(&r, d)| d.value(r)));
            hi_vals.clear();
            hi_vals.extend(interval.hi.iter().zip(doms).map(|(&r, d)| d.value(r)));
            let mut survivors = Survivors::default();
            let run_start = parent.len();
            work.evaluations += cands.ids.len() as u64;
            for (k, &ci) in cands.ids.iter().enumerate() {
                let ranges = &cand_ranges[ci as usize * nw..][..nw];
                // T(v_b, I(w)) = Σ_B T(v_b, B), summed until it provably
                // exceeds the threshold (the partial sum is monotone, so
                // the heaviness verdict is exact).
                let mut t = 0.0f64;
                let mut heavy = false;
                for (bi, b) in boxes.iter().enumerate() {
                    if box_dead[bi] {
                        continue;
                    }
                    let mut tb = 1.0f64;
                    for (wi, &ai) in weighted.iter().enumerate() {
                        let c = match free_counts[bi * nw + wi] {
                            Some(c) => c,
                            None => est.count_box_bound_in(ai, ranges[wi], b) as f64,
                        };
                        if c == 0.0 {
                            tb = 0.0;
                            break;
                        }
                        tb *= c.powf(est.u_hat(ai));
                    }
                    t += tb;
                    if approx_gt(t, threshold) {
                        heavy = true;
                        break;
                    }
                }
                if !heavy {
                    continue;
                }
                first.clear();
                let mut witness = if is_root {
                    Witness::Unknown
                } else {
                    first.extend_from_slice(&cands.first[k * mu..][..mu]);
                    Witness::inherit(side, &first, &lo_vals, &hi_vals)
                };
                // The capped run: Algorithm 2's ⊥ branch at `w` — the
                // restricted join over I(w)'s non-empty boxes, on the same
                // join the serve path seeds — counted in the serve path's
                // own units. The boxes are in lexicographic order and each
                // join emits in lexicographic order, so its first answer
                // that reaches the output is the minimum of those in I(w),
                // and the run doubles as the first-answer probe: past the
                // cap it stops at that answer. A pair known empty needs no
                // run: it is stored as `0` whatever its cost.
                let mut capped = false;
                if witness != Witness::Empty {
                    let start = metrics::snapshot().work();
                    'boxes: for (bi, b) in boxes.iter().enumerate() {
                        if b.is_empty() || capped && box_dead[bi] {
                            continue; // no answer (nor, at serve time, a join)
                        }
                        probe_cons.clear();
                        probe_cons.extend(cand(ci).iter().map(|&v| LevelConstraint::Fixed(v)));
                        free_constraints_into(doms, b, mu, &mut probe_cons);
                        probe_join.reset(&probe_cons);
                        work.probes += 1;
                        loop {
                            let answer = probe_join.next();
                            if let Some(answer) = answer {
                                if reaches(answer) && witness != Witness::First {
                                    first.clear();
                                    first.extend_from_slice(&answer[nb..]);
                                    witness = Witness::First;
                                }
                            }
                            capped |= (metrics::snapshot().work() - start) as f64 > cap;
                            if capped && witness == Witness::First {
                                break 'boxes;
                            }
                            if answer.is_none() {
                                break;
                            }
                        }
                    }
                    work.capped_work += metrics::snapshot().work() - start;
                }
                if !capped && witness == Witness::First {
                    // Light by work: ⊥ serves it within the cap, and with an
                    // answer to show for it.
                    work.light_by_work += 1;
                    continue;
                }
                let bit = witness == Witness::First;
                stored(&interval, cand(ci), bit.then_some(&first));
                let e = u32::try_from(parent.len()).expect("entry numbers fit in u32");
                parent.push(if is_root { e } else { cands.entries[k] });
                if e % 64 == 0 {
                    built_bits.push(0);
                }
                built_bits[e as usize / 64] |= u64::from(bit) << (e % 64);
                if is_root {
                    root_values.extend_from_slice(cand(ci));
                }
                if bit {
                    survivors.ids.push(ci);
                    survivors.entries.push(e);
                    survivors.first.extend_from_slice(&first);
                }
            }
            if parent.len() == run_start {
                continue; // no entry: a leaf of the stored tree
            }
            if is_root {
                num_roots = parent.len();
            } else {
                runs.push(Run {
                    start: run_start as u32,
                    level: place.level,
                    side,
                });
            }
            let [left, right] = tree.split(place, &interval, &mut beta);
            if !survivors.ids.is_empty() {
                let survivors = Rc::new(survivors);
                for (child, side) in [(right, Side::Right), (left, Side::Left)] {
                    if let Some(child) = child {
                        let FInterval { lo, hi } = &interval;
                        let right = side == Side::Right;
                        child_interval_into(&sizes, right, lo, hi, &beta, &mut bounds);
                        stack.push((child, side, Rc::clone(&survivors)));
                    }
                }
            }
        }

        // 3. Renumber breadth-first. A root entry keeps its build-order
        //    position (the root is visited first, candidates ascending).
        //    Level by level, each entry sets its child bit, `2·(its
        //    parent's number) + side`, then takes `num_roots + rank` of it.
        //    A level's parents are one level up, numbered already, and its
        //    ranks read only bits of levels up to its parents', all set by
        //    then: one rank directory word per 64 child bits, extended one
        //    level at a time. `parent[d]` becomes `d`'s own number.
        let total = parent.len();
        let run_end = |i: usize| runs.get(i + 1).map_or(total, |r| r.start as usize);
        let mut child_words = vec![0u64; (2 * total).div_ceil(64)];
        let mut before = vec![0u32; child_words.len()];
        let mut bits = vec![0u64; total.div_ceil(64)];
        for d in 0..num_roots {
            bits[d / 64] |= (built_bits[d / 64] >> (d % 64) & 1) << (d % 64);
        }
        // Entries of the level above, by number.
        let mut above = 0..num_roots;
        let depth = runs.iter().map(|r| r.level).max().unwrap_or(0);
        for level in 1..=depth {
            let mut count = 0;
            for (i, run) in runs.iter().enumerate().filter(|(_, r)| r.level == level) {
                for d in run.start as usize..run_end(i) {
                    let p = child_bit(&parent, d, run.side);
                    child_words[p / 64] |= 1 << (p % 64);
                    count += 1;
                }
            }
            if count == 0 {
                break;
            }
            let words = 2 * above.start / 64..(2 * above.end).div_ceil(64);
            for w in words.start.max(1)..words.end {
                before[w] = before[w - 1] + child_words[w - 1].count_ones();
            }
            for (i, run) in runs.iter().enumerate().filter(|(_, r)| r.level == level) {
                for d in run.start as usize..run_end(i) {
                    let p = child_bit(&parent, d, run.side);
                    let below = child_words[p / 64] & ((1u64 << (p % 64)) - 1);
                    let n = num_roots + (before[p / 64] + below.count_ones()) as usize;
                    bits[n / 64] |= (built_bits[d / 64] >> (d % 64) & 1) << (n % 64);
                    parent[d] = n as u32;
                }
            }
            above = above.end..above.end + count;
        }
        assert_eq!(above.end, total, "every entry descends from a root entry");
        drop((parent, built_bits, before));

        let keys = DictKeys {
            nb,
            num_cands: num_roots,
            cand_values: Packed::from_slice(&root_values),
            children: RankedBits::new(
                (0..2 * total).map(|p| child_words[p / 64] >> (p % 64) & 1 == 1),
            ),
            work,
        };
        HeavyDictionary {
            keys: Arc::new(keys),
            bits,
        }
    }

    /// The dictionary of a tree without internal nodes — a root leaf, or
    /// no tree at all (the empty view): no entry.
    pub fn empty() -> HeavyDictionary {
        HeavyDictionary {
            keys: Arc::new(DictKeys {
                nb: 0,
                num_cands: 0,
                cand_values: Packed::default(),
                children: RankedBits::new([]),
                work: DictBuildWork::default(),
            }),
            bits: Vec::new(),
        }
    }

    /// Resolves a bound valuation to its candidate id — its root entry —
    /// or `None` when the root stores no entry for `v_b`, which is then
    /// `⊥` at every node. The enumerator calls this once per request.
    pub fn candidate(&self, vb: &[Value]) -> Option<u32> {
        let k = &*self.keys;
        let (mut lo, mut hi) = (0, k.num_cands);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match k.cmp_cand(mid, vb) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// The entry of `entry`'s candidate at the `side` child of `entry`'s
    /// node, `None` (⊥) when that child stores none: one bit test and, for
    /// a set bit, one rank.
    ///
    /// # Panics
    ///
    /// Panics unless `entry` is below [`HeavyDictionary::num_entries`], in
    /// release builds too.
    #[inline]
    pub(crate) fn child(&self, entry: u32, side: Side) -> Option<u32> {
        let p = 2 * entry as usize + side as usize;
        let rank = self.keys.children.rank_of_set(p)?;
        Some((self.keys.num_cands + rank) as u32)
    }

    /// The stored bit of entry `entry`.
    ///
    /// # Panics
    ///
    /// Panics unless `entry` is below [`HeavyDictionary::num_entries`], in
    /// release builds too: the bits past the last entry in its word are
    /// padding.
    #[inline]
    pub fn bit(&self, entry: u32) -> bool {
        let e = entry as usize;
        assert!(
            e < self.keys.num_entries(),
            "entry {e} out of a dictionary of {}",
            self.keys.num_entries()
        );
        self.bits[e / 64] >> (e % 64) & 1 == 1
    }

    /// Looks up `D(w, v_b)` at a node the enumerator entered with `entry`,
    /// `v_b`'s entry there ([`HeavyDictionary::candidate`] at the root,
    /// the parent's child bit below): `Some(bit)` for a heavy pair, `None`
    /// (⊥) for a light one, or at a leaf. Either way it counts as one
    /// lookup.
    #[inline]
    pub fn lookup(&self, entry: Option<u32>) -> Option<bool> {
        metrics::record_dict_lookup();
        entry.map(|e| self.bit(e))
    }

    /// Looks up `D(w, v_b)` at the internal node of rank `rank`:
    /// `Some(bit)` for heavy pairs, `None` (⊥) for light ones (off the
    /// serve path: follows `v_b`'s entry down the path from the root).
    pub fn get(&self, tree: &DelayBalancedTree, rank: u32, vb: &[Value]) -> Option<bool> {
        let cand = self.candidate(vb)?;
        let mut entries = vec![Entry { entry: cand, cand }];
        self.descend_to(tree, tree.internal_node(rank), &mut entries);
        entries.first().map(|e| self.bit(e.entry))
    }

    /// Narrows `entries`, the root's (or some of them), to what node `w`
    /// stores of their candidates, following the path from the root. The
    /// path is climbed from `w` first: each slot names its parent and its
    /// side ([`DelayBalancedTree::parent`]).
    fn descend_to(&self, tree: &DelayBalancedTree, w: u32, entries: &mut Vec<Entry>) {
        let mut sides = Vec::new();
        let mut at = w;
        while let Some((parent, right)) = tree.parent(at) {
            sides.push(if right { Side::Right } else { Side::Left });
            at = parent;
        }
        for &side in sides.iter().rev() {
            entries.retain_mut(|e| match self.child(e.entry, side) {
                Some(entry) => {
                    e.entry = entry;
                    true
                }
                None => false,
            });
        }
    }

    /// Overwrites the stored bit of entry `entry` — one a walk yielded.
    /// The set of stored pairs cannot change: a light pair (Def. 3) has no
    /// entry to name, so nothing can store it and break the Lemma 5 count.
    ///
    /// # Panics
    ///
    /// Panics unless `entry` is below [`HeavyDictionary::num_entries`], in
    /// release builds too.
    pub fn flip(&mut self, entry: u32, bit: bool) {
        if self.bit(entry) != bit {
            let e = entry as usize;
            self.bits[e / 64] ^= 1 << (e % 64);
        }
    }

    /// Walks `tree` top-down in left-first pre-order, calling `visit` at
    /// every node it reaches with the node's entries; `visit` returns
    /// whether to descend into the node's children. Off the serve path:
    /// each visited node's children's lists are derived from its own, one
    /// child bit per entry and side, in a scratch stack of lists.
    pub fn walk(&self, tree: &DelayBalancedTree, mut visit: impl FnMut(&WalkStep<'_>) -> bool) {
        let mut interval = tree.root_interval();
        let mu = interval.mu();
        let mut beta = interval.lo.clone();
        // The pending nodes' lists, end to end in stack order: a node's
        // list runs from its start to the next one's (the top one's: to
        // the end). Their intervals are `2µ` ranks each in `bounds`.
        let mut lists: Vec<Entry> = (0..self.keys.num_cands as u32)
            .map(|c| Entry { entry: c, cand: c })
            .collect();
        let mut stack: Vec<(Cursor, usize)> = vec![(tree.root(), 0)];
        let mut bounds: Vec<usize> = interval.lo.iter().chain(&interval.hi).copied().collect();
        while let Some((cursor, start)) = stack.pop() {
            let at = bounds.len() - 2 * mu;
            interval.lo.copy_from_slice(&bounds[at..at + mu]);
            interval.hi.copy_from_slice(&bounds[at + mu..]);
            bounds.truncate(at);
            let node = tree.node(cursor, &interval.lo, &interval.hi, &mut beta);
            let step = WalkStep {
                cursor,
                node,
                interval: &interval,
                entries: &lists[start..],
            };
            if !visit(&step) {
                lists.truncate(start);
                continue;
            }
            // The children's lists go after this one, then take its place:
            // the right child's first, so the left one's is on top.
            let end = lists.len();
            let mut starts = [start; 2];
            for (i, (child, side)) in [(node.right, Side::Right), (node.left, Side::Left)]
                .into_iter()
                .enumerate()
            {
                starts[i] = start + lists.len() - end;
                if child.is_some() {
                    for k in start..end {
                        let Entry { entry, cand } = lists[k];
                        if let Some(entry) = self.child(entry, side) {
                            lists.push(Entry { entry, cand });
                        }
                    }
                }
            }
            lists.copy_within(end.., start);
            lists.truncate(lists.len() - (end - start));
            for ((child, right), start) in [(node.right, true), (node.left, false)]
                .into_iter()
                .zip(starts)
            {
                if let Some(child) = child {
                    let FInterval { lo, hi } = &interval;
                    tree.child_interval_into(right, lo, hi, &beta, &mut bounds);
                    stack.push((child, start));
                }
            }
        }
    }

    /// Iterates over all entries as `(r, v_b, bit)`, `r` the node's
    /// internal rank, by ascending rank, each node's in ascending `v_b`
    /// order (off the serve path: a walk, each `v_b` decoded into its own
    /// `Vec`, then a stable sort by rank).
    pub fn entries(
        &self,
        tree: &DelayBalancedTree,
    ) -> impl Iterator<Item = (u32, Vec<Value>, bool)> {
        let mut out = Vec::with_capacity(self.num_entries());
        self.walk(tree, |step| {
            if let Some(rank) = step.node.internal {
                out.extend(
                    step.entries
                        .iter()
                        .map(|e| (rank, self.cand(e.cand), self.bit(e.entry))),
                );
            }
            true
        });
        out.sort_by_key(|&(rank, _, _)| rank);
        out.into_iter()
    }

    /// The entries of the internal node of rank `rank`, in ascending `v_b`
    /// order (off the serve path: the root's list narrowed down the path).
    pub fn entries_of(
        &self,
        tree: &DelayBalancedTree,
        rank: u32,
    ) -> impl Iterator<Item = (Vec<Value>, bool)> + '_ {
        let mut entries: Vec<Entry> = (0..self.keys.num_cands as u32)
            .map(|c| Entry { entry: c, cand: c })
            .collect();
        self.descend_to(tree, tree.internal_node(rank), &mut entries);
        entries
            .into_iter()
            .map(|e| (self.cand(e.cand), self.bit(e.entry)))
    }

    /// Decodes candidate `cand`'s valuation into `out`.
    pub fn candidate_into(&self, cand: u32, out: &mut Vec<Value>) {
        let k = &*self.keys;
        let start = cand as usize * k.nb;
        out.clear();
        out.extend((0..k.nb).map(|i| k.cand_values.get(start + i)));
    }

    fn cand(&self, cand: u32) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.keys.nb);
        self.candidate_into(cand, &mut out);
        out
    }

    /// Total number of stored pairs (the non-linear space term of Lemma 5).
    pub fn num_entries(&self) -> usize {
        self.keys.num_entries()
    }

    /// Work counts of the build that produced this dictionary's keys
    /// (shared, like the keys, with every maintained successor).
    pub fn build_work(&self) -> DictBuildWork {
        self.keys.work
    }

    /// Number of candidate valuations stored: the distinct `v_b` the root
    /// stores, which are all the entries name.
    /// [`DictBuildWork::candidates`] counts the root candidates the build
    /// started from.
    pub fn num_candidates(&self) -> usize {
        self.keys.num_cands
    }

    /// Bits per stored candidate value.
    pub fn value_width(&self) -> u32 {
        self.keys.cand_values.width()
    }

    /// Number of child bits: two per entry.
    pub fn child_bits(&self) -> usize {
        self.keys.children.len()
    }

    /// `true` when both dictionaries share one key buffer (the bits may
    /// differ): the maintained-from relationship.
    pub fn shares_keys_with(&self, other: &HeavyDictionary) -> bool {
        Arc::ptr_eq(&self.keys, &other.keys)
    }
}

/// The child bit that names build-order entry `d` once its parent is
/// numbered: `2·(the parent's number) + side`. `parent[d]` is the parent's
/// build-order position, which holds its number by then.
fn child_bit(parent: &[u32], d: usize, side: Side) -> usize {
    2 * parent[parent[d] as usize] as usize + side as usize
}

impl HeapSize for HeavyDictionary {
    fn heap_bytes(&self) -> usize {
        self.keys.cand_values.heap_bytes()
            + self.keys.children.heap_bytes()
            + self.bits.heap_bytes()
    }
}

/// Per-free-level constraints induced by a canonical box, in enumeration
/// order (`mu` of them), appended to a reused buffer.
pub fn free_constraints_into(
    doms: &[Domain],
    b: &CanonicalBox,
    mu: usize,
    cons: &mut Vec<LevelConstraint>,
) {
    let p = b.range_pos();
    for (ep, dom) in doms.iter().enumerate().take(mu) {
        if ep < p {
            cons.push(LevelConstraint::Fixed(dom.value(b.prefix[ep])));
        } else if ep == p {
            cons.push(LevelConstraint::Range(
                dom.value(b.range.0),
                dom.value(b.range.1),
            ));
        } else {
            cons.push(LevelConstraint::Free);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::tests::{running_estimator, running_example};
    use crate::theorem1::Theorem1Structure;
    use cqc_common::AnswerBlock;

    /// The dictionary of the build at `τ`. The tests read it against the
    /// whole tree ([`DelayBalancedTree::build`]): an entry is named by the
    /// sides on its node's path, never by a slot, so any tree that holds
    /// its nodes reads it as the stored one does.
    fn dictionary(plan: &ViewPlan, est: &CostEstimator, tau: f64) -> HeavyDictionary {
        HeavyDictionary::build(plan, est, tau).unwrap().1
    }

    /// The internal nodes' cursors, by rank: what an entry's row names.
    fn internal_cursors(tree: &DelayBalancedTree) -> Vec<Cursor> {
        tree.cursors().filter(|c| !tree.is_leaf(c.node)).collect()
    }

    /// Each node's parent, by id (`None` for the root and empty slots).
    fn parents(tree: &DelayBalancedTree) -> Vec<Option<u32>> {
        let mut parent = vec![None; tree.num_slots()];
        for c in tree.cursors() {
            let FInterval { lo, hi } = tree.interval(c);
            let node = tree.node(c, &lo, &hi, &mut vec![0; lo.len()]);
            for child in [node.left, node.right].into_iter().flatten() {
                parent[child.node as usize] = Some(c.node);
            }
        }
        parent
    }

    /// `gen triangle 400 7` and its `Q^{bff}` view.
    fn triangle_400_7_bff() -> (cqc_query::AdornedView, cqc_storage::Database) {
        let (relations, _) = cqc_workload::triangle_relations(7, 400);
        let mut db = cqc_storage::Database::new();
        for r in relations {
            db.add(r).unwrap();
        }
        let view =
            cqc_query::parser::parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
        (view, db)
    }

    /// The rule the build applies on top of Def. 3, re-derived on the serve
    /// path: Algorithm 2's `⊥` branch over `interval` for `vb` — the
    /// cursor's own interval evaluator, which every `⊥` node runs — finds
    /// an answer within [`LIGHT_WORK_CAP`]` · τ` counted work units.
    fn light_by_work(s: &Theorem1Structure, vb: &[Value], interval: &FInterval) -> bool {
        let mut it = s.enumerator();
        let before = metrics::snapshot().work();
        it.reset_interval(vb, interval);
        let mut answered = false;
        while it.advance() {
            answered = true;
        }
        answered && (metrics::snapshot().work() - before) as f64 <= LIGHT_WORK_CAP * s.tau()
    }

    /// Example 15, as Def. 3 reads it: at τ = 4 the pair `((1,1,1), w)` is
    /// heavy at `r` and at `r_r`, each with bit `1`, and leaves are never
    /// heavy. The build stores neither: each one's `⊥` run finds its
    /// answers within 16 · 4 units, so the dictionary is empty and the
    /// root a leaf.
    #[test]
    fn example_15_dictionary_entries() {
        let (view, db) = running_example();
        let est = running_estimator();
        let tree = DelayBalancedTree::build(&est, 4.0).unwrap();
        // Node ids from the Figure 3 test: 0 = r, 2 = r_r (left child 1
        // is a leaf), so r_r is the second internal node.
        assert_eq!(tree.internal_rank(2), Some(1));
        assert_eq!(tree.num_internal(), 2);
        let s = Theorem1Structure::build(&view, &db, &[1.0; 3], 4.0).unwrap();
        let vb = [1, 1, 1];
        let answers = cqc_join::naive::evaluate_view(&view, &db, &vb).unwrap();
        for c in tree.cursors() {
            let interval = tree.interval(c);
            let t = est.t_interval_bound(&vb, &interval, &est.sizes());
            let heavy = approx_gt(t, tree.threshold_of(c.level));
            assert_eq!(
                heavy,
                c.node == 0 || c.node == 2,
                "Def. 3 at node {}",
                c.node
            );
            if heavy {
                let bit = answers.iter().any(|a| {
                    let ranks: Vec<usize> = a
                        .iter()
                        .zip(est.domains())
                        .map(|(v, d)| d.rank(*v).unwrap())
                        .collect();
                    interval.contains(&ranks)
                });
                assert!(bit, "D(I({}), (1,1,1)) = 1", c.node);
                assert!(light_by_work(&s, &vb, &interval), "node {}", c.node);
            }
        }
        assert_eq!(s.dictionary().num_entries(), 0);
        assert_eq!(s.tree().map(DelayBalancedTree::len), Some(1));
    }

    /// Over the running example's whole bound grid at τ = 1, 2 and 4, a
    /// pair is stored iff it is heavy at `w` (Def. 3), `w`'s parent stores
    /// its candidate as `1` (at the root: always), and it is not
    /// [`light_by_work`]; its bit says whether the naive join has an answer
    /// in `I(w)`.
    #[test]
    fn running_example_stores_exactly_the_heavy_pairs_heavy_by_work() {
        let (view, db) = running_example();
        let est = running_estimator();
        let plan = ViewPlan::build(&view, &db).unwrap();
        let sizes = est.sizes();
        let mut stored_total = Vec::new();
        for tau in [1.0, 2.0, 4.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            let dict = dictionary(&plan, &est, tau);
            let s = Theorem1Structure::build(&view, &db, &[1.0; 3], tau).unwrap();
            let parent = parents(&tree);
            let mut stored_here = 0;
            for w1 in 1..=3u64 {
                for w2 in 1..=2u64 {
                    for w3 in 1..=2u64 {
                        let vb = [w1, w2, w3];
                        let answers = cqc_join::naive::evaluate_view(&view, &db, &vb).unwrap();
                        // The cursors come in level order: a parent's
                        // verdict is in first. `held[w]`: `w` stores a `1`.
                        let mut held = vec![false; tree.num_slots()];
                        for c in tree.cursors() {
                            let (w, interval) = (c.node, tree.interval(c));
                            let t = est.t_interval_bound(&vb, &interval, &sizes);
                            let heavy = approx_gt(t, tree.threshold_of(c.level));
                            let reachable = parent[w as usize].map_or(true, |p| held[p as usize]);
                            let stored = heavy && reachable && !light_by_work(&s, &vb, &interval);
                            let bit = answers.iter().any(|a| {
                                let ranks: Vec<usize> = a
                                    .iter()
                                    .zip(est.domains())
                                    .map(|(v, d)| d.rank(*v).unwrap())
                                    .collect();
                                interval.contains(&ranks)
                            });
                            held[w as usize] = stored && bit;
                            stored_here += usize::from(stored);
                            let entry = tree.internal_rank(w).and_then(|r| dict.get(&tree, r, &vb));
                            assert_eq!(
                                entry,
                                stored.then_some(bit),
                                "τ={tau} (({w1},{w2},{w3}), node {w}): heavy {heavy}, \
                                 parent holds a 1 {reachable}"
                            );
                        }
                    }
                }
            }
            assert_eq!(stored_here, dict.num_entries(), "τ={tau}");
            stored_total.push(stored_here);
        }
        assert_eq!(stored_total, [17, 2, 0]);
    }

    /// The off-serve-path readers climb from a slot to the root instead of
    /// walking down: at every internal rank of the running example (τ = 1
    /// and 2) and of the `gen triangle 400 7` `bff` tree at τ = 8,
    /// `entries_of` and `get` give exactly the list the walk yields at that
    /// node, `internal_node` inverts `internal_rank`, and `parent` names the
    /// node the walk came from.
    #[test]
    fn off_serve_path_readers_agree_with_the_walk() {
        let (view, db) = running_example();
        let mut structures: Vec<Theorem1Structure> = [1.0, 2.0]
            .map(|tau| Theorem1Structure::build(&view, &db, &[1.0; 3], tau).unwrap())
            .into();
        let (view, db) = triangle_400_7_bff();
        structures.push(Theorem1Structure::build(&view, &db, &[0.5; 3], 8.0).unwrap());
        for s in &structures {
            let (tree, dict) = (s.tree().unwrap(), s.dictionary());
            let ctx = format!("τ={} ({} nodes)", s.tau(), tree.len());
            let mut internal = 0;
            dict.walk(tree, |step| {
                let w = step.cursor.node;
                for (side, child) in [step.node.left, step.node.right].into_iter().enumerate() {
                    if let Some(child) = child {
                        assert_eq!(tree.parent(child.node), Some((w, side == 1)), "{ctx}");
                    }
                }
                let Some(rank) = step.node.internal else {
                    return true;
                };
                internal += 1;
                assert_eq!(tree.internal_rank(w), Some(rank), "{ctx}");
                assert_eq!(tree.internal_node(rank), w, "{ctx}");
                let walked: Vec<(Vec<Value>, bool)> = step
                    .entries
                    .iter()
                    .map(|e| (dict.cand(e.cand), dict.bit(e.entry)))
                    .collect();
                let read: Vec<(Vec<Value>, bool)> = dict.entries_of(tree, rank).collect();
                assert_eq!(read, walked, "{ctx} slot {w}");
                for (vb, bit) in &walked {
                    assert_eq!(dict.get(tree, rank, vb), Some(*bit), "{ctx} slot {w}");
                }
                true
            });
            assert_eq!(internal, tree.num_internal(), "{ctx}");
        }
        assert_eq!(structures[2].stats().tree_nodes, 7);
    }

    /// Bits must reflect emptiness of the restricted join.
    #[test]
    fn bits_match_restricted_emptiness() {
        let (view, db) = running_example();
        let est = running_estimator();
        let plan = ViewPlan::build(&view, &db).unwrap();
        for tau in [1.0, 2.0, 4.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            let dict = dictionary(&plan, &est, tau);
            let internal = internal_cursors(&tree);
            for (w, vb, bit) in dict.entries(&tree) {
                let interval = tree.interval(internal[w as usize]);
                // Naive emptiness: enumerate the full join of the view for
                // this v_b and check membership in the interval.
                let res = cqc_join::naive::evaluate_view(&view, &db, &vb).unwrap();
                let doms = est.domains();
                let nonempty = res.iter().any(|t| {
                    let ranks: Vec<usize> = t
                        .iter()
                        .zip(doms)
                        .map(|(v, d)| d.rank(*v).expect("output value in domain"))
                        .collect();
                    interval.contains(&ranks)
                });
                assert_eq!(bit, nonempty, "bit mismatch at node {w}, vb {vb:?}");
            }
        }
    }

    /// A skewed triangle `Q^{bff}`: three Zipf relations of `rows` pairs
    /// over 40 values.
    fn skewed_triangle(seed: u64, rows: usize) -> (cqc_query::AdornedView, cqc_storage::Database) {
        let mut rng = cqc_workload::rng(seed);
        let zipf = cqc_workload::Zipf::new(40, 1.1);
        let mut db = cqc_storage::Database::new();
        for name in ["R", "S", "T"] {
            db.add(cqc_workload::gen::zipf_pairs(
                &mut rng, name, rows, 40, &zipf,
            ))
            .unwrap();
        }
        let view =
            cqc_query::parser::parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
        (view, db)
    }

    /// Witness inheritance decides some bits without a run (a pair known
    /// empty) and stops others at the cap, so every stored bit is checked
    /// against the naive join, and the witness a `1` bit was decided from
    /// must be the lexicographic minimum of the restricted join inside
    /// `I(w)` — inherited or found by the capped run. The instance is
    /// skewed enough that empty intervals are common. The capped run is
    /// the probe: each heavy pair seeds each of its node's at most
    /// `2µ − 1` boxes at most once.
    #[test]
    fn bits_and_witnesses_match_the_naive_join_on_a_skewed_graph() {
        let (view, db) = skewed_triangle(5, 500);
        let plan = ViewPlan::build(&view, &db).unwrap();
        for (weights, alpha, tau) in [([0.5; 3], 1.0, 1.0), ([1.0; 3], 2.0, 1.0)] {
            let est = CostEstimator::build(&view, &db, &weights, alpha).unwrap();
            let mut seen: Vec<(FInterval, Vec<Value>, Option<Vec<Value>>)> = Vec::new();
            let (tree, dict) = HeavyDictionary::build_observed(
                &plan,
                &est,
                tau,
                |_| true,
                |interval, vb, first| {
                    seen.push((interval.clone(), vb.to_vec(), first.map(<[Value]>::to_vec)));
                },
            )
            .unwrap();
            assert_eq!(seen.len(), dict.num_entries());
            // The build reports in walk order, which is the stored tree's.
            let mut walked = Vec::new();
            dict.walk(&tree, |step| {
                for e in step.entries {
                    walked.push((step.interval.clone(), dict.cand(e.cand), dict.bit(e.entry)));
                }
                true
            });
            let mut zeros = 0;
            for ((interval, vb, first), (w, evb, bit)) in seen.iter().zip(walked) {
                assert_eq!(
                    (interval, &vb[..]),
                    (&w, &evb[..]),
                    "the same pairs, node by node"
                );
                // The oracle emits in lexicographic order.
                let expect = cqc_join::naive::evaluate_view(&view, &db, vb)
                    .unwrap()
                    .into_iter()
                    .find(|t| {
                        let ranks: Vec<usize> = t
                            .iter()
                            .zip(est.domains())
                            .map(|(v, d)| d.rank(*v).expect("answers lie on the grid"))
                            .collect();
                        interval.contains(&ranks)
                    });
                assert_eq!(first, &expect, "α={alpha} I(w)={interval:?} v_b={vb:?}");
                assert_eq!(
                    bit,
                    expect.is_some(),
                    "α={alpha} I(w)={interval:?} v_b={vb:?}"
                );
                zeros += usize::from(!bit);
            }
            assert!(
                zeros > 100 && dict.num_entries() > 2 * zeros,
                "α={alpha}: {zeros} zero bits of {} must exercise both verdicts",
                dict.num_entries()
            );
            let work = dict.build_work();
            let heavy = dict.num_entries() as u64 + work.light_by_work;
            assert!(work.light_by_work > 100, "α={alpha}: {work:?}");
            assert!(
                work.probes <= 3 * heavy,
                "α={alpha}: {} probe joins for {heavy} heavy pairs",
                work.probes
            );
        }
    }

    /// Host-independent work bound at α = 1, where every threshold is τ and
    /// a node passes down exactly its stored pairs that hold `1`: the root
    /// evaluates the candidates, every other internal node at most its
    /// parent's `1` entries, a leaf nothing; and each heavy pair's one
    /// capped run seeds each of its node's at most `2µ − 1 = 3` boxes at
    /// most once. The instance has 2 000 rows so that τ = 8 still stores
    /// over 200 entries (600 rows, the size that stored 634 under Def. 3
    /// alone, keeps 15).
    #[test]
    fn build_work_is_bounded_by_candidates_and_entries() {
        let (view, db) = skewed_triangle(9, 2000);
        let plan = ViewPlan::build(&view, &db).unwrap();
        let est = CostEstimator::build(&view, &db, &[0.5; 3], 1.0).unwrap();
        for tau in [1.0, 2.0, 8.0] {
            let dict = dictionary(&plan, &est, tau);
            let work = dict.build_work();
            let (cands, entries) = (work.candidates, dict.num_entries() as u64);
            let ones = (0..entries as u32).filter(|&e| dict.bit(e)).count() as u64;
            assert!(entries > 200, "τ={tau}: {entries} entries");
            assert!(
                work.evaluations <= cands + 2 * ones,
                "τ={tau}: {} evaluations for {cands} candidates, {ones} entries holding 1",
                work.evaluations
            );
            let heavy = entries + work.light_by_work;
            assert!(
                work.probes <= 3 * heavy,
                "τ={tau}: {} probe joins for {heavy} heavy pairs",
                work.probes
            );
            // The counts are a function of the instance alone.
            assert_eq!(dictionary(&plan, &est, tau).build_work(), work);
        }
    }

    /// A root candidate the root does not store is not kept: at a τ where
    /// most candidates are light everywhere (τ = 8: 7 of 40 are kept), the kept ones are exactly the
    /// valuations the entries name, each resolving to its own id in order
    /// (its root entry), and the build still reports every candidate it
    /// started from.
    #[test]
    fn only_referenced_candidates_are_kept() {
        let (view, db) = skewed_triangle(9, 500);
        let plan = ViewPlan::build(&view, &db).unwrap();
        let est = CostEstimator::build(&view, &db, &[0.5; 3], 1.0).unwrap();
        let tree = DelayBalancedTree::build(&est, 8.0).unwrap();
        let dict = dictionary(&plan, &est, 8.0);
        let mut named: Vec<Vec<Value>> = dict.entries(&tree).map(|(_, vb, _)| vb).collect();
        named.sort_unstable();
        named.dedup();
        assert!(!named.is_empty());
        assert_eq!(dict.num_candidates(), named.len());
        assert!(
            dict.build_work().candidates > named.len() as u64,
            "{} root candidates, {} kept",
            dict.build_work().candidates,
            named.len()
        );
        for (id, vb) in named.iter().enumerate() {
            assert_eq!(dict.candidate(vb), Some(id as u32));
            assert!(dict.get(&tree, 0, vb).is_some(), "a root entry");
        }
    }

    /// Def. 3: only heavy pairs are stored, and `flip` names an entry, so
    /// it cannot store a light pair: a valuation that is no candidate, or a
    /// candidate light at a node, has no entry there to name (`get` is ⊥,
    /// the walk yields none). On an entry the walk yields, `flip`
    /// overwrites exactly that bit.
    #[test]
    fn flip_never_invents_heavy_pairs() {
        fn snapshot(d: &HeavyDictionary, tree: &DelayBalancedTree) -> Vec<(u32, Vec<Value>, bool)> {
            d.entries(tree).collect()
        }
        let (view, db) = running_example();
        let est = running_estimator();
        let plan = ViewPlan::build(&view, &db).unwrap();
        let tree = DelayBalancedTree::build(&est, 1.0).unwrap();
        let mut dict = dictionary(&plan, &est, 1.0);
        let before = snapshot(&dict, &tree);
        assert!(!before.is_empty());

        // A non-candidate.
        assert_eq!(dict.candidate(&[9, 9, 9]), None);
        assert_eq!(dict.get(&tree, 0, &[9, 9, 9]), None);

        // A candidate that is light at an internal node (every candidate
        // of the running example is heavy wherever it is a node's: the
        // skewed triangle has light ones).
        let (view, db) = skewed_triangle(9, 500);
        let est = CostEstimator::build(&view, &db, &[0.5; 3], 1.0).unwrap();
        let skewed_tree = DelayBalancedTree::build(&est, 8.0).unwrap();
        let skewed = dictionary(&ViewPlan::build(&view, &db).unwrap(), &est, 8.0);
        let stored = snapshot(&skewed, &skewed_tree);
        let (rank, light) = (0..skewed_tree.num_internal() as u32)
            .flat_map(|r| stored.iter().map(move |(_, vb, _)| (r, vb.clone())))
            .find(|(r, vb)| skewed.get(&skewed_tree, *r, vb).is_none())
            .expect("a stored valuation light at another node");
        assert!(skewed
            .entries_of(&skewed_tree, rank)
            .all(|(vb, _)| vb != light));

        // Every entry the walk yields flips both ways and nothing else
        // moves.
        let mut walked: Vec<u32> = Vec::new();
        dict.walk(&tree, |step| {
            walked.extend(step.entries.iter().map(|e| e.entry));
            true
        });
        walked.sort_unstable();
        assert!(walked.iter().copied().eq(0..dict.num_entries() as u32));
        for &e in &walked {
            let bit = dict.bit(e);
            dict.flip(e, !bit);
            let after = snapshot(&dict, &tree);
            let moved: Vec<usize> = (0..before.len())
                .filter(|&i| after[i] != before[i])
                .collect();
            assert_eq!(moved.len(), 1, "entry {e}");
            assert_eq!(dict.num_entries(), before.len());
            dict.flip(e, bit);
        }
        assert_eq!(snapshot(&dict, &tree), before);
        assert_eq!(dict.get(&tree, 0, &[1, 1, 1]), Some(true));
    }

    /// A read or a flip past the last entry panics, in release builds too:
    /// the bits past it in its word are padding.
    #[test]
    #[should_panic(expected = "out of a dictionary")]
    fn a_bit_past_the_last_entry_panics() {
        let (view, db) = running_example();
        let est = running_estimator();
        let dict = dictionary(&ViewPlan::build(&view, &db).unwrap(), &est, 1.0);
        assert!(dict.num_entries() % 64 != 0, "the last word has padding");
        dict.bit(dict.num_entries() as u32);
    }

    /// See [`a_bit_past_the_last_entry_panics`].
    #[test]
    #[should_panic(expected = "out of a dictionary")]
    fn flipping_past_the_last_entry_panics() {
        let (view, db) = running_example();
        let est = running_estimator();
        let mut dict = dictionary(&ViewPlan::build(&view, &db).unwrap(), &est, 4.0);
        dict.flip(dict.num_entries() as u32, true);
    }

    /// Walks `dict` over `tree` straight after its build and asserts that
    /// every non-root entry's candidate is stored as `1` at its node's
    /// parent; returns the number of entries walked. The walk meets a node
    /// right after the last node one level up that is its parent: `held[ℓ]`
    /// is the candidates the last node met at level `ℓ` stores as `1`,
    /// ascending.
    fn assert_stored_below_ones(
        dict: &HeavyDictionary,
        tree: &DelayBalancedTree,
        ctx: &str,
    ) -> usize {
        let mut held: Vec<Vec<u32>> = Vec::new();
        let mut walked = 0;
        dict.walk(tree, |step| {
            let level = step.cursor.level as usize;
            if let Some(above) = level.checked_sub(1) {
                let parent = &held[above];
                assert!(
                    step.entries
                        .iter()
                        .all(|e| parent.binary_search(&e.cand).is_ok()),
                    "{ctx} node {}: a candidate its parent lacks or holds as 0",
                    step.cursor.node
                );
            }
            held.truncate(level);
            held.push(
                step.entries
                    .iter()
                    .filter(|e| dict.bit(e.entry))
                    .map(|e| e.cand)
                    .collect(),
            );
            walked += step.entries.len();
            true
        });
        walked
    }

    /// The running example's query over `3 × rows` uniform tuples on `dom`
    /// values (`cqc_workload::rng(1)`), whose weights give α = 2.
    fn alpha_two_instance(
        rows: usize,
        dom: u64,
    ) -> (cqc_query::AdornedView, cqc_storage::Database) {
        let (view, _) = running_example();
        let mut rng = cqc_workload::rng(1);
        let mut db = cqc_storage::Database::new();
        for name in ["R1", "R2", "R3"] {
            db.add(cqc_workload::uniform_relation(&mut rng, name, 3, rows, dom))
                .unwrap();
        }
        (view, db)
    }

    /// At α = 2 the thresholds fall with depth, so a pair can be heavy at
    /// a node whose parent holds no entry for its candidate, or holds it as
    /// `0`. Algorithm 2 never reads it (it recurses only on a stored `1`),
    /// and the build does not store it. On [`alpha_two_instance`], at each
    /// `(τ, entries)`: every non-root entry's candidate is stored as `1` at
    /// its parent, the entry count is the pinned one, and sampled requests
    /// answer the naive join.
    fn check_alpha_two(rows: usize, dom: u64, pins: [(f64, usize); 2]) {
        let (view, db) = alpha_two_instance(rows, dom);
        for (tau, entries) in pins {
            let s = Theorem1Structure::build(&view, &db, &[1.0; 3], tau).unwrap();
            assert_eq!(s.alpha(), 2.0, "Example 4's slack");
            let (tree, dict) = (s.tree().unwrap(), s.dictionary());
            let walked = assert_stored_below_ones(dict, tree, &format!("τ={tau}"));
            assert_eq!(walked, dict.num_entries(), "τ={tau}");
            assert_eq!(dict.num_entries(), entries, "τ={tau}");
            for i in 0..12u64 {
                let vb = [(7 * i) % dom, (11 * i + 3) % dom, (13 * i + 5) % dom];
                let mut block = AnswerBlock::new();
                s.enumerator().answer_into(&vb, &mut block).unwrap();
                let expect = cqc_join::naive::evaluate_view(&view, &db, &vb).unwrap();
                assert_eq!(block.to_tuples(), expect, "τ={tau} v_b={vb:?}");
            }
        }
    }

    /// [`check_alpha_two`] on 3 × 300 tuples over 10 values. The layout
    /// that stored every heavy pair held 108 110 entries at τ = 8 (4 328
    /// of them, in 185 lists, under a parent lacking their candidate). The
    /// layout that also stored pairs below a `0` held 99 275; filtering out
    /// every entry with an ancestor that lacks its candidate or holds it as
    /// `0` left 77 431 (84 378 at τ = 4), and filtering out, too, every
    /// pair whose `⊥` run finds an answer within 16 · τ units, and what
    /// lies below it, leaves the pins. (τ = 32, pinned before at 17 960,
    /// now stores nothing.)
    #[test]
    fn alpha_two_stores_only_pairs_their_parent_holds() {
        check_alpha_two(300, 10, [(4.0, 5_789), (8.0, 1_396)]);
    }

    /// [`check_alpha_two`] on 3 × 3 000 tuples over 30 values, where the
    /// layout that stored every heavy pair held 18 358 951 entries at
    /// τ = 8 (6 198 under a parent lacking their candidate, in 89 of 24 602
    /// lists) and 16 547 990 at τ = 32 (930 326, in 3 794 lists), the one
    /// that also stored pairs below a `0` held 18 326 383 and 14 194 979,
    /// and the one that stored every such Def.-3-heavy pair but nothing
    /// below a `0` held 8 054 717 and 7 007 452. It takes about 3 s
    /// optimised and ten times that without, so the unoptimised tier skips
    /// it and `scripts/kick-tires.sh` runs it in release.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "about 150 s unoptimised; run in release")]
    fn alpha_two_stores_only_pairs_their_parent_holds_at_scale() {
        check_alpha_two(3000, 30, [(8.0, 237_716), (32.0, 26_905)]);
    }

    /// Algorithm 2 recurses only on a stored `1`, so nothing is stored
    /// below a `0`: on `gen triangle 400 7`'s `bff` view at τ = 1, 2 and 8
    /// and on the α = 2 instance at τ = 8, every non-root entry's parent
    /// holds its candidate as `1` at build. (The layout that stored heavy
    /// pairs below a `0` held 2 170 and 800 entries at τ = 2 and 8 and
    /// 99 275 on the α = 2 instance; the one that stored every other
    /// Def.-3-heavy pair, pairs light by work included, 1 925, 785 and
    /// 77 431.)
    #[test]
    fn nothing_is_stored_below_a_zero() {
        let (view, db) = triangle_400_7_bff();
        let mut structures: Vec<Theorem1Structure> = [1.0, 2.0, 8.0]
            .map(|tau| Theorem1Structure::build(&view, &db, &[0.5; 3], tau).unwrap())
            .into();
        let (view, db) = alpha_two_instance(300, 10);
        structures.push(Theorem1Structure::build(&view, &db, &[1.0; 3], 8.0).unwrap());
        let mut entries = Vec::new();
        for s in &structures {
            let (tree, dict) = (s.tree().unwrap(), s.dictionary());
            let ctx = format!("α={} τ={}", s.alpha(), s.tau());
            let walked = assert_stored_below_ones(dict, tree, &ctx);
            assert_eq!(walked, dict.num_entries(), "{ctx}");
            entries.push(walked);
        }
        assert_eq!(entries, [1_168, 342, 20, 1_396]);
    }

    /// Lemma 5 sanity: the number of entries stays within the
    /// (constant-factor-padded) bound Π|R_F|^{u_F} / τ^α · log.
    #[test]
    fn entry_count_within_lemma_5_bound() {
        let (view, db) = running_example();
        let est = running_estimator();
        let plan = ViewPlan::build(&view, &db).unwrap();
        for tau in [1.0f64, 2.0, 4.0, 8.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            let dict = dictionary(&plan, &est, tau);
            let product = 5.0f64 * 5.0 * 5.0; // Π|R_F| with u = (1,1,1)
            let alpha = 2.0;
            let mu = 3.0f64;
            let c = (2.0 * mu - 1.0).powf(alpha);
            let levels = f64::from(tree.depth()) + 1.0;
            let bound = c * levels * product / tau.powf(alpha);
            assert!(
                (dict.num_entries() as f64) <= bound,
                "τ={tau}: {} entries > bound {bound}",
                dict.num_entries()
            );
        }
    }
}
