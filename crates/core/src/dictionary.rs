//! The heavy-pair dictionary **D** (§4.3 step 2, Appendix A).
//!
//! For every tree node `w` at level `ℓ` and every bound valuation `v_b`
//! with `T(v_b, I(w)) > τ_ℓ` (a *τ_ℓ-heavy pair*, Def. 3), the dictionary
//! stores one bit: whether `(⋈_F R_F(v_b)) ⋉ I(w)` is non-empty. Light
//! pairs have no entry (`⊥`) and are evaluated directly at query time.
//!
//! Construction follows Appendix A: candidate valuations are the distinct
//! `V_b`-prefixes of the join of the bound-touching atoms `E_{V_b}`
//! restricted to `I(w)` (Prop. 13), enumerated with prefix-skipping
//! leapfrog joins; each heavy candidate's bit is then decided. For the bit
//! we use a first-answer probe of the fully restricted join instead of
//! streaming the complete join output (Algorithm 3): the result is
//! identical and each probe is bounded by the same `T(v_b, I(w))` quantity
//! that bounds Algorithm 3's per-valuation work (docs/ARCHITECTURE.md,
//! "Theorem 1 build").

use crate::cost::CostEstimator;
use crate::dbtree::{Cursor, DelayBalancedTree};
use crate::fbox::{box_decomposition_ranks, BoxList, CanonicalBox, FInterval};
use cqc_common::heap::HeapSize;
use cqc_common::metrics::{self, BuildPhase};
use cqc_common::packed::Packed;
use cqc_common::util::{approx_gt, partition_point};
use cqc_common::value::Value;
use cqc_join::leapfrog::LevelConstraint;
use cqc_join::plan::ViewPlan;
use cqc_storage::Domain;
use std::cmp::Ordering;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// *Which* pairs are heavy: fixed at build time, because maintenance and
/// the Theorem 2 fixup only ever flip the bits of existing entries. Shared
/// by `Arc` between a structure and its delta-maintained successors.
///
/// Every column is [`Packed`] at the width its data needs
/// (docs/ARCHITECTURE.md, "Packed integer columns").
#[derive(Debug)]
struct DictKeys {
    /// `|V_b|`: values per candidate.
    nb: usize,
    /// Number of candidates (kept explicitly: `nb` may be 0).
    num_cands: usize,
    /// The candidate valuations some entry references, in bound-head
    /// order, sorted and distinct, `nb` values each; a candidate's id is
    /// its position.
    cand_values: Packed,
    /// CSR row starts, one per internal node plus one: the entries of the
    /// internal node of rank `r` are `ids[offsets[r]..offsets[r + 1]]`. A
    /// leaf has no heavy pair and no row.
    offsets: Packed,
    /// Candidate ids of the heavy pairs, ascending within each node's run.
    ids: Packed,
    /// What the build spent finding them.
    work: DictBuildWork,
}

/// Deterministic work counts of one [`HeavyDictionary::build`]: the same
/// instance always reports the same numbers, on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DictBuildWork {
    /// Root candidate valuations (Prop. 13) the build started from. Those
    /// no entry references are not kept (see
    /// [`HeavyDictionary::num_candidates`]).
    pub candidates: u64,
    /// `(candidate, node)` pairs whose `T(v_b, I(w))` was evaluated.
    pub evaluations: u64,
    /// Those of them at leaves. A leaf has no heavy pair and no CSR row,
    /// so the build skips it: always 0.
    pub leaf_evaluations: u64,
    /// First-answer leapfrog joins run to decide emptiness bits (one per
    /// canonical box probed).
    pub probes: u64,
}

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

/// Which child of its parent a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

impl Witness {
    /// The child's knowledge, given its parent's (`first` is the parent's
    /// first answer, `lo`/`hi` the child's endpoints in value space). The
    /// children split the parent's interval around `β`, so: an empty parent
    /// has empty children; a first answer inside the child is also the
    /// child's first; one beyond the left child's upper end leaves the left
    /// child empty (every answer is at least the first); only a right child
    /// whose parent's first answer lies at or before `β` knows nothing.
    fn inherit(self, side: Side, first: &[Value], lo: &[Value], hi: &[Value]) -> Witness {
        match (self, side) {
            (Witness::First, Side::Left) if first > hi => Witness::Empty,
            (Witness::First, Side::Right) if first < lo => Witness::Unknown,
            (known, _) => known,
        }
    }
}

/// The candidates a node passes to its children: ascending ids, and per
/// candidate what the node knows about its restricted join.
#[derive(Debug, Default)]
struct Survivors {
    ids: Vec<u32>,
    witness: Vec<Witness>,
    /// `µ` values per candidate; meaningful where the witness is
    /// [`Witness::First`].
    first: Vec<Value>,
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

    /// Decodes candidate `id`'s valuation into `out`.
    fn cand_into(&self, id: usize, out: &mut Vec<Value>) {
        let start = id * self.nb;
        out.clear();
        out.extend((0..self.nb).map(|i| self.cand_values.get(start + i)));
    }

    fn cand(&self, id: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.nb);
        self.cand_into(id, &mut out);
        out
    }

    /// The entries of the internal node of rank `rank`.
    #[inline]
    fn run(&self, rank: u32) -> std::ops::Range<usize> {
        let r = rank as usize;
        self.offsets.get(r) as usize..self.offsets.get(r + 1) as usize
    }
}

/// The id [`HeavyDictionary::candidate`] gives a valuation no entry
/// stores. No run holds it, so `D(w, ·) = ⊥` at every node.
pub const NO_CANDIDATE: u32 = u32::MAX;

/// The dictionary: CSR over internal tree nodes (by internal rank, see
/// [`crate::dbtree::Node::internal`]) of candidate ids, one bit per entry.
#[derive(Debug, Clone)]
pub struct HeavyDictionary {
    keys: Arc<DictKeys>,
    /// Bit `e` belongs to entry `keys.ids[e]`.
    bits: Vec<u64>,
}

impl HeavyDictionary {
    /// Builds the dictionary for a delay-balanced tree.
    pub fn build(
        plan: &ViewPlan,
        est: &CostEstimator,
        tree: &DelayBalancedTree,
    ) -> HeavyDictionary {
        HeavyDictionary::build_observed(plan, est, tree, |_, _, _| {})
    }

    /// [`HeavyDictionary::build`], reporting each pair as it is stored:
    /// `stored(r, v_b, first)`, where `r` is the node's internal rank and
    /// `first` the witness the bit was decided from — the first answer of
    /// `(⋈ R_F(v_b)) ⋉ I(w)`, `None` for a `0` bit.
    fn build_observed(
        plan: &ViewPlan,
        est: &CostEstimator,
        tree: &DelayBalancedTree,
        mut stored: impl FnMut(u32, &[Value], Option<&[Value]>),
    ) -> HeavyDictionary {
        let t_build = Instant::now();
        let sizes = est.sizes();
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
        //    Candidate sets only shrink down the tree — `I(child) ⊆
        //    I(parent)` and `T(v_b, ·)` is monotone in the interval — so we
        //    enumerate once here and *filter* along tree edges below,
        //    instead of re-running the join per node (same output, far less
        //    work; the per-node join of Algorithm 3 costs a full
        //    worst-case-join per level). One join is constructed and
        //    re-seeded per box via `LeapfrogJoin::reset`, mirroring the
        //    serve-side reuse.
        // The endpoints of the node under the walk, re-derived per visit
        // (here: the root's, the full grid).
        let FInterval { mut lo, mut hi } = tree.interval(tree.root());
        let mut boxes = BoxList::new();
        box_decomposition_ranks(&lo, &hi, &sizes, &mut boxes);
        let (num_cands, cand_values) = if nb == 0 {
            (1, Vec::new())
        } else {
            // Prefixes arrive sorted and distinct within a box but repeat
            // across boxes.
            let mut raw: Vec<Value> = Vec::new();
            let mut join = plan.join_subset(&bound_atoms, vec![LevelConstraint::Fixed(0); levels]);
            let mut cons: Vec<LevelConstraint> = Vec::with_capacity(levels);
            for b in boxes.as_slice() {
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
        assert!(
            num_cands < NO_CANDIDATE as usize,
            "candidate ids fit below the u32 sentinel"
        );
        let cand = |c: u32| &cand_values[c as usize * nb..][..nb];
        // The CSR columns as the walk appends them, packed at the end.
        let mut offsets: Vec<u64> = Vec::with_capacity(tree.num_internal() + 1);
        let mut ids: Vec<u32> = Vec::new();
        let mut bits: Vec<u64> = Vec::new();

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

        // 2. DFS in node-id order (left-first pre-order, exactly how the
        //    tree numbered the nodes), so every node's run of heavy ids is
        //    appended to the CSR buffers in place — already in its final
        //    position and already ascending. An internal node evaluates
        //    `T(v_b, I(w))` for the candidates its parent passed down,
        //    stores the heavy ones with their emptiness bit, and passes on
        //    those that can still be heavy further down. Three exact
        //    prunings keep that cheap (docs/ARCHITECTURE.md, "Theorem 1
        //    build"):
        //
        //    * light forever — `T(v_b, ·)` is monotone in the interval and
        //      `τ_ℓ` non-increasing in `ℓ`, so a candidate not above
        //      `tau_min` (the threshold of the deepest internal level) is
        //      light here and at every descendant, and is dropped;
        //    * leaves evaluate nothing — `T(v_b, I(w)) ≤ T(I(w)) < τ_ℓ`
        //      there, so a leaf has no heavy pair and no CSR row;
        //    * witness inheritance — each survivor carries the
        //      lexicographically first answer of `(⋈ R_F(v_b)) ⋉ I(w)`
        //      once a probe has found it (or that there is none), and a
        //      child derives its own from it: see `Witness::inherit`.
        let tau_min = tree.threshold_of(tree.deepest_internal_level().unwrap_or(0));
        let mu = levels - nb;
        let mut work = DictBuildWork {
            candidates: num_cands as u64,
            ..DictBuildWork::default()
        };
        let mut probe_join = plan.join(vec![LevelConstraint::Fixed(0); levels]);
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
        let none: Rc<Survivors> = Rc::new(Survivors::default());
        let all = Rc::new(Survivors {
            ids: (0..num_cands as u32).collect(),
            witness: vec![Witness::Unknown; num_cands],
            first: vec![0; num_cands * mu],
        });
        // (The root's side is never read: its witnesses are all unknown.)
        let mut stack: Vec<(Cursor, Side, Rc<Survivors>)> = vec![(tree.root(), Side::Left, all)];
        while let Some((c, side, cands)) = stack.pop() {
            let node = tree.node(c, &mut lo, &mut hi);
            // Nodes come in id order, so internal ones in rank order: each
            // appends its row start.
            if let Some(rank) = node.internal {
                assert_eq!(rank as usize, offsets.len(), "nodes visited in id order");
                offsets.push(ids.len() as u64);
            }
            let children = [(node.right, Side::Right), (node.left, Side::Left)];
            let (Some(rank), false) = (node.internal, cands.ids.is_empty()) else {
                // A leaf, or nothing can be heavy in this subtree; its
                // internal nodes still take their offsets, in order.
                for (child, side) in children {
                    stack.extend(child.map(|c| (c, side, Rc::clone(&none))));
                }
                continue;
            };
            let threshold = tree.threshold_of(c.level);
            box_decomposition_ranks(&lo, &hi, &sizes, &mut boxes);
            let boxes = boxes.as_slice();
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
            lo_vals.extend(lo.iter().zip(doms).map(|(&r, d)| d.value(r)));
            hi_vals.clear();
            hi_vals.extend(hi.iter().zip(doms).map(|(&r, d)| d.value(r)));
            // Only internal children read the survivor list.
            let pass_down = children
                .iter()
                .any(|(c, _)| c.is_some_and(|c| !tree.is_leaf(c.node)));
            let mut survivors = Survivors::default();
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
                let may_be_heavy_below = pass_down && approx_gt(t, tau_min);
                if !heavy && !may_be_heavy_below {
                    continue;
                }
                first.clear();
                first.extend_from_slice(&cands.first[k * mu..][..mu]);
                let mut witness = cands.witness[k].inherit(side, &first, &lo_vals, &hi_vals);
                if heavy {
                    if witness == Witness::Unknown {
                        // First-answer probe: the boxes are in lexicographic
                        // order and each join emits in lexicographic order,
                        // so the first hit is the minimum of the restricted
                        // join in I(w).
                        witness = Witness::Empty;
                        for (bi, b) in boxes.iter().enumerate() {
                            if box_dead[bi] {
                                continue; // some atom has no matching row
                            }
                            probe_cons.clear();
                            probe_cons.extend(cand(ci).iter().map(|&v| LevelConstraint::Fixed(v)));
                            free_constraints_into(doms, b, mu, &mut probe_cons);
                            probe_join.reset(&probe_cons);
                            work.probes += 1;
                            if let Some(answer) = probe_join.next() {
                                first.copy_from_slice(&answer[nb..]);
                                witness = Witness::First;
                                break;
                            }
                        }
                    }
                    let bit = witness == Witness::First;
                    stored(rank, cand(ci), bit.then_some(&first));
                    let e = ids.len();
                    ids.push(ci);
                    if e % 64 == 0 {
                        bits.push(0);
                    }
                    bits[e / 64] |= u64::from(bit) << (e % 64);
                }
                if pass_down {
                    survivors.ids.push(ci);
                    survivors.witness.push(witness);
                    survivors.first.extend_from_slice(&first);
                }
            }
            let survivors = if pass_down {
                Rc::new(survivors)
            } else {
                Rc::clone(&none)
            };
            for (child, side) in children {
                stack.extend(child.map(|c| (c, side, Rc::clone(&survivors))));
            }
        }
        offsets.push(ids.len() as u64);
        bits.shrink_to_fit();

        // A candidate no entry references is `⊥` at every node, which is
        // what `NO_CANDIDATE` already says: only referenced ones are kept,
        // renumbered in order, so every run stays ascending.
        let mut kept: Vec<Option<u32>> = vec![None; num_cands];
        for &ci in &ids {
            kept[ci as usize] = Some(0);
        }
        let mut kept_values: Vec<Value> = Vec::new();
        let mut num_kept = 0;
        for (ci, slot) in kept.iter_mut().enumerate() {
            if slot.is_some() {
                *slot = Some(num_kept);
                num_kept += 1;
                kept_values.extend_from_slice(cand(ci as u32));
            }
        }
        let keys = DictKeys {
            nb,
            num_cands: num_kept as usize,
            cand_values: Packed::from_slice(&kept_values),
            offsets: Packed::from_slice(&offsets),
            ids: Packed::new(
                ids.iter()
                    .map(|&ci| u64::from(kept[ci as usize].expect("referenced"))),
            ),
            work,
        };

        metrics::record_build_phase(BuildPhase::Dictionary, t_build.elapsed().as_nanos() as u64);
        HeavyDictionary {
            keys: Arc::new(keys),
            bits,
        }
    }

    /// The dictionary of a tree without internal nodes — a root leaf, or
    /// no tree at all (the empty view): one CSR offset and no entry.
    pub fn empty() -> HeavyDictionary {
        HeavyDictionary {
            keys: Arc::new(DictKeys {
                nb: 0,
                num_cands: 0,
                cand_values: Packed::default(),
                offsets: Packed::from_slice(&[0]),
                ids: Packed::default(),
                work: DictBuildWork::default(),
            }),
            bits: Vec::new(),
        }
    }

    /// Resolves a bound valuation to its candidate id ([`NO_CANDIDATE`]
    /// when no entry stores `v_b`); the enumerator calls this once per
    /// request.
    pub fn candidate(&self, vb: &[Value]) -> u32 {
        let k = &*self.keys;
        let (mut lo, mut hi) = (0, k.num_cands);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match k.cmp_cand(mid, vb) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return mid as u32,
            }
        }
        NO_CANDIDATE
    }

    /// Position of the `(node, candidate)` entry in `ids`/`bits`, for the
    /// internal node of rank `rank`.
    #[inline]
    fn entry(&self, rank: u32, cand: u32) -> Option<usize> {
        let run = self.keys.run(rank);
        let ids = &self.keys.ids;
        let cand = u64::from(cand);
        let e = partition_point(run.start, run.end, |e| ids.get(e) >= cand);
        (e < run.end && ids.get(e) == cand).then_some(e)
    }

    #[inline]
    fn bit(&self, e: usize) -> bool {
        self.bits[e / 64] >> (e % 64) & 1 == 1
    }

    /// Looks up `D(w, v_b)` for a valuation already resolved by
    /// [`HeavyDictionary::candidate`], at the node whose internal rank is
    /// `internal` ([`crate::dbtree::Node::internal`]): `Some(bit)` for
    /// heavy pairs, `None` (⊥) for light ones. A leaf (`None`) is ⊥
    /// without a read; it still counts as one lookup.
    #[inline]
    pub fn lookup(&self, internal: Option<u32>, cand: u32) -> Option<bool> {
        metrics::record_dict_lookup();
        self.entry(internal?, cand).map(|e| self.bit(e))
    }

    /// Looks up `D(w, v_b)` at the internal node of rank `rank`:
    /// `Some(bit)` for heavy pairs, `None` (⊥) for light ones.
    pub fn get(&self, rank: u32, vb: &[Value]) -> Option<bool> {
        self.lookup(Some(rank), self.candidate(vb))
    }

    /// Overwrites the bit of an existing entry and reports whether the
    /// entry existed. An absent key is a light pair (Def. 3) and stays `⊥`:
    /// storing it would break the Lemma 5 entry bound. Callers flip only
    /// keys they read from [`HeavyDictionary::entries_of`] and assert the
    /// returned `true`.
    pub fn flip(&mut self, rank: u32, vb: &[Value], bit: bool) -> bool {
        let Some(e) = self.entry(rank, self.candidate(vb)) else {
            return false;
        };
        let mask = 1u64 << (e % 64);
        if bit {
            self.bits[e / 64] |= mask;
        } else {
            self.bits[e / 64] &= !mask;
        }
        true
    }

    /// Visits the entries of the internal node of rank `rank` in
    /// ascending `v_b` order and stores the bit `redecide(v_b, bit)`
    /// returns for each — delta maintenance's re-probe, decoding each key
    /// into one reused buffer.
    pub(crate) fn redecide_bits_of(
        &mut self,
        rank: u32,
        mut redecide: impl FnMut(&[Value], bool) -> bool,
    ) {
        let HeavyDictionary { keys, bits } = self;
        let mut vb: Vec<Value> = Vec::with_capacity(keys.nb);
        for e in keys.run(rank) {
            let mask = 1u64 << (e % 64);
            let bit = bits[e / 64] & mask != 0;
            keys.cand_into(keys.ids.get(e) as usize, &mut vb);
            if redecide(&vb, bit) != bit {
                bits[e / 64] ^= mask;
            }
        }
    }

    /// Total number of stored pairs (the non-linear space term of Lemma 5).
    pub fn num_entries(&self) -> usize {
        self.keys.ids.len()
    }

    /// Work counts of the build that produced this dictionary's keys
    /// (shared, like the keys, with every maintained successor).
    pub fn build_work(&self) -> DictBuildWork {
        self.keys.work
    }

    /// Number of candidate valuations stored: the distinct `v_b` some
    /// entry references. [`DictBuildWork::candidates`] counts the root
    /// candidates the build started from.
    pub fn num_candidates(&self) -> usize {
        self.keys.num_cands
    }

    /// Bits per stored candidate value, CSR offset and candidate id.
    pub fn widths(&self) -> DictWidths {
        DictWidths {
            values: self.keys.cand_values.width(),
            offsets: self.keys.offsets.width(),
            ids: self.keys.ids.width(),
        }
    }

    /// `true` when both dictionaries share one key buffer (the bits may
    /// differ): the maintained-from relationship.
    pub fn shares_keys_with(&self, other: &HeavyDictionary) -> bool {
        Arc::ptr_eq(&self.keys, &other.keys)
    }

    /// Iterates over all entries as `(r, v_b, bit)`, `r` the node's
    /// internal rank, in node order (off the serve path: each `v_b` is
    /// decoded into its own `Vec`).
    pub fn entries(&self) -> impl Iterator<Item = (u32, Vec<Value>, bool)> + '_ {
        (0..self.keys.offsets.len() as u32 - 1)
            .flat_map(move |r| self.entries_of(r).map(move |(vb, bit)| (r, vb, bit)))
    }

    /// The entries of the internal node of rank `rank`, in ascending `v_b`
    /// order.
    pub fn entries_of(&self, rank: u32) -> impl Iterator<Item = (Vec<Value>, bool)> + '_ {
        self.keys
            .run(rank)
            .map(move |e| (self.keys.cand(self.keys.ids.get(e) as usize), self.bit(e)))
    }
}

/// Bits per value of a dictionary's packed key columns (see
/// [`HeavyDictionary::widths`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DictWidths {
    /// Candidate valuations, `|V_b|` values each.
    pub values: u32,
    /// CSR row starts, one per internal node plus one.
    pub offsets: u32,
    /// Candidate ids, one per entry.
    pub ids: u32,
}

impl HeapSize for HeavyDictionary {
    fn heap_bytes(&self) -> usize {
        self.keys.cand_values.heap_bytes()
            + self.keys.offsets.heap_bytes()
            + self.keys.ids.heap_bytes()
            + self.bits.heap_bytes()
    }
}

/// Per-free-level constraints induced by a canonical box, in enumeration
/// order (length `mu`).
pub fn free_constraints(doms: &[Domain], b: &CanonicalBox, mu: usize) -> Vec<LevelConstraint> {
    let mut cons = Vec::with_capacity(mu);
    free_constraints_into(doms, b, mu, &mut cons);
    cons
}

/// [`free_constraints`] appended to a reused buffer — the allocation-free
/// form the enumerators drive per canonical box.
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

    /// The internal nodes' cursors, by rank: what an entry's row names.
    fn internal_cursors(tree: &DelayBalancedTree) -> Vec<Cursor> {
        tree.cursors().filter(|c| !tree.is_leaf(c.node)).collect()
    }

    /// Example 15: at τ = 4 the dictionary holds exactly the two entries
    /// D(I(r), (1,1,1)) = 1 and D(I(r_r), (1,1,1)) = 1 for that valuation,
    /// and leaves have no row.
    #[test]
    fn example_15_dictionary_entries() {
        let (view, db) = running_example();
        let est = running_estimator();
        let plan = ViewPlan::build(&view, &db).unwrap();
        let tree = DelayBalancedTree::build(&est, 4.0).unwrap();
        let dict = HeavyDictionary::build(&plan, &est, &tree);

        // Node ids from the Figure 3 test: 0 = r, 2 = r_r (left child 1
        // is a leaf), so r_r is the second internal node.
        assert_eq!(tree.internal_rank(2), Some(1));
        assert_eq!(dict.get(0, &[1, 1, 1]), Some(true));
        assert_eq!(dict.get(1, &[1, 1, 1]), Some(true));

        // Leaves have no row (they have no heavy pairs): one CSR row per
        // internal node, and a leaf is ⊥ without one.
        assert_eq!(tree.num_internal(), 2);
        assert!(dict.entries().all(|(r, _, _)| r < 2));
        assert_eq!(
            dict.lookup(tree.internal_rank(1), dict.candidate(&[1, 1, 1])),
            None
        );

        // Brute-force cross-check of heaviness over the whole bound grid.
        let sizes = est.sizes();
        for w1 in 1..=3u64 {
            for w2 in 1..=2u64 {
                for w3 in 1..=2u64 {
                    let vb = [w1, w2, w3];
                    for c in tree.cursors() {
                        let w = c.node;
                        let t = est.t_interval_bound(&vb, &tree.interval(c), &sizes);
                        let thr = tree.threshold_of(c.level);
                        let entry = tree.internal_rank(w).and_then(|r| dict.get(r, &vb));
                        if t > thr + 1e-9 {
                            assert!(
                                entry.is_some(),
                                "heavy pair (({w1},{w2},{w3}), node {w}) missing"
                            );
                        } else {
                            assert!(
                                entry.is_none(),
                                "light pair (({w1},{w2},{w3}), node {w}) stored"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Bits must reflect emptiness of the restricted join.
    #[test]
    fn bits_match_restricted_emptiness() {
        let (view, db) = running_example();
        let est = running_estimator();
        let plan = ViewPlan::build(&view, &db).unwrap();
        for tau in [1.0, 2.0, 4.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            let dict = HeavyDictionary::build(&plan, &est, &tree);
            let internal = internal_cursors(&tree);
            for (w, vb, bit) in dict.entries() {
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

    /// A skewed triangle `Q^{bff}`: three Zipf relations over 40 values.
    fn skewed_triangle(seed: u64) -> (cqc_query::AdornedView, cqc_storage::Database) {
        let mut rng = cqc_workload::rng(seed);
        let zipf = cqc_workload::Zipf::new(40, 1.1);
        let mut db = cqc_storage::Database::new();
        for name in ["R", "S", "T"] {
            db.add(cqc_workload::gen::zipf_pairs(
                &mut rng, name, 500, 40, &zipf,
            ))
            .unwrap();
        }
        let view =
            cqc_query::parser::parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
        (view, db)
    }

    /// Witness inheritance decides most bits without a probe, so every
    /// stored bit is checked against the naive join, and the witness a `1`
    /// bit was decided from must be the lexicographic minimum of the
    /// restricted join inside `I(w)` — inherited or freshly probed. The
    /// instance is skewed enough that empty intervals are common.
    #[test]
    fn bits_and_witnesses_match_the_naive_join_on_a_skewed_graph() {
        let (view, db) = skewed_triangle(5);
        let plan = ViewPlan::build(&view, &db).unwrap();
        for (weights, alpha, tau) in [([0.5; 3], 1.0, 2.0), ([1.0; 3], 2.0, 4.0)] {
            let est = CostEstimator::build(&view, &db, &weights, alpha).unwrap();
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            let mut seen: Vec<(u32, Vec<Value>, Option<Vec<Value>>)> = Vec::new();
            let dict = HeavyDictionary::build_observed(&plan, &est, &tree, |w, vb, first| {
                seen.push((w, vb.to_vec(), first.map(<[Value]>::to_vec)));
            });
            assert_eq!(seen.len(), dict.num_entries());
            let internal = internal_cursors(&tree);
            let mut zeros = 0;
            for ((w, vb, first), (ew, evb, bit)) in seen.iter().zip(dict.entries()) {
                assert_eq!((*w, &vb[..]), (ew, &evb[..]), "reported in storage order");
                let interval = tree.interval(internal[*w as usize]);
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
                assert_eq!(first, &expect, "α={alpha} node {w} v_b={vb:?}");
                assert_eq!(bit, expect.is_some(), "α={alpha} node {w} v_b={vb:?}");
                zeros += usize::from(!bit);
            }
            assert!(
                zeros > 100 && dict.num_entries() > 2 * zeros,
                "α={alpha}: {zeros} zero bits of {} must exercise both verdicts",
                dict.num_entries()
            );
            assert!(
                dict.build_work().probes < dict.num_entries() as u64,
                "most bits are inherited, not probed"
            );
        }
    }

    /// Host-independent work bound at α = 1, where every threshold is τ and
    /// a node passes down exactly its heavy pairs: the root evaluates the
    /// candidates, every other internal node at most its parent's entries,
    /// a leaf nothing; and with most bits inherited the probe joins stay
    /// below the entries.
    #[test]
    fn build_work_is_bounded_by_candidates_and_entries() {
        let (view, db) = skewed_triangle(9);
        let plan = ViewPlan::build(&view, &db).unwrap();
        let est = CostEstimator::build(&view, &db, &[0.5; 3], 1.0).unwrap();
        for tau in [1.0, 2.0, 8.0] {
            let tree = DelayBalancedTree::build(&est, tau).unwrap();
            let dict = HeavyDictionary::build(&plan, &est, &tree);
            let work = dict.build_work();
            let (cands, entries) = (work.candidates, dict.num_entries() as u64);
            assert!(entries > 500, "τ={tau}: {entries} entries");
            assert_eq!(work.leaf_evaluations, 0, "τ={tau}");
            assert!(
                work.evaluations <= cands + 2 * entries,
                "τ={tau}: {} evaluations for {cands} candidates, {entries} entries",
                work.evaluations
            );
            assert!(
                work.probes <= entries,
                "τ={tau}: {} probe joins for {entries} entries",
                work.probes
            );
            // The counts are a function of the instance alone.
            assert_eq!(
                HeavyDictionary::build(&plan, &est, &tree).build_work(),
                work
            );
        }
    }

    /// A root candidate no entry references is not kept: at a τ where
    /// most candidates are light everywhere, the kept ones are exactly the
    /// valuations the entries name, each resolving to its own id in order,
    /// and the build still reports every candidate it started from.
    #[test]
    fn only_referenced_candidates_are_kept() {
        let (view, db) = skewed_triangle(9);
        let plan = ViewPlan::build(&view, &db).unwrap();
        let est = CostEstimator::build(&view, &db, &[0.5; 3], 1.0).unwrap();
        let tree = DelayBalancedTree::build(&est, 64.0).unwrap();
        let dict = HeavyDictionary::build(&plan, &est, &tree);
        let mut named: Vec<Vec<Value>> = dict.entries().map(|(_, vb, _)| vb).collect();
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
            assert_eq!(dict.candidate(vb), id as u32);
        }
    }

    /// Def. 3: only heavy pairs are stored. `flip` on a light pair (absent
    /// key, or a valuation that is no candidate at all) must refuse instead
    /// of inventing an entry; on a stored pair it overwrites exactly that
    /// bit.
    #[test]
    fn flip_never_invents_heavy_pairs() {
        fn snapshot(d: &HeavyDictionary) -> Vec<(u32, Vec<Value>, bool)> {
            d.entries()
                .map(|(w, vb, bit)| (w, vb.to_vec(), bit))
                .collect()
        }
        let (view, db) = running_example();
        let est = running_estimator();
        let plan = ViewPlan::build(&view, &db).unwrap();
        let tree = DelayBalancedTree::build(&est, 4.0).unwrap();
        let mut dict = HeavyDictionary::build(&plan, &est, &tree);
        let before = snapshot(&dict);
        assert!(!before.is_empty());

        // A non-candidate.
        assert_eq!(dict.candidate(&[9, 9, 9]), NO_CANDIDATE);
        assert!(!dict.flip(0, &[9, 9, 9], true));
        assert_eq!(dict.num_entries(), before.len());
        assert_eq!(snapshot(&dict), before, "no entry added, no bit disturbed");

        // A candidate that is light at an internal node (every candidate
        // of the running example is heavy wherever it is a node's: the
        // skewed triangle has light ones).
        let (view, db) = skewed_triangle(9);
        let est = CostEstimator::build(&view, &db, &[0.5; 3], 1.0).unwrap();
        let tree = DelayBalancedTree::build(&est, 8.0).unwrap();
        let mut skewed = HeavyDictionary::build(&ViewPlan::build(&view, &db).unwrap(), &est, &tree);
        let stored = snapshot(&skewed);
        let (rank, light) = (0..tree.num_internal() as u32)
            .flat_map(|r| stored.iter().map(move |(_, vb, _)| (r, vb.clone())))
            .find(|(r, vb)| skewed.get(*r, vb).is_none())
            .expect("a stored valuation light at another node");
        assert!(!skewed.flip(rank, &light, true));
        assert_eq!(skewed.get(rank, &light), None, "still ⊥");
        assert_eq!(
            snapshot(&skewed),
            stored,
            "no entry added, no bit disturbed"
        );

        // A stored pair flips both ways and nothing else moves.
        assert_eq!(dict.get(0, &[1, 1, 1]), Some(true));
        assert!(dict.flip(0, &[1, 1, 1], false));
        assert_eq!(dict.get(0, &[1, 1, 1]), Some(false));
        assert_eq!(dict.num_entries(), before.len());
        assert!(dict.flip(0, &[1, 1, 1], true));
        assert_eq!(snapshot(&dict), before);
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
            let dict = HeavyDictionary::build(&plan, &est, &tree);
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
