//! The `T(·)` cost oracle of §4.2.
//!
//! For a weight assignment `u` with slack `α = α(V_f)` and `û = u/α`, the
//! paper defines, for a canonical f-box `B` and a bound valuation `v`:
//!
//! ```text
//! T(B)    = Π_F |R_F(B)|^{û_F}          T(v, B) = Π_F |R_F(v, B)|^{û_F}
//! T(I)    = Σ_{B ∈ B(I)} T(B)           T(v, I) = Σ_{B ∈ B(I)} T(v, B)
//! ```
//!
//! `T(v, I)` bounds the worst-case-optimal time to evaluate
//! `(⋈_F R_F(v)) ⋉ I` (Prop. 6), so it doubles as the heaviness predicate
//! (Def. 3) and as the per-level stopping rule of the delay-balanced tree.
//!
//! Every count narrows one of two sorted indexes per relation
//! (docs/ARCHITECTURE.md, "Theorem 1 build"): `[free columns in
//! enumeration order | bound columns]` for `T(B)`, which picks the tree's
//! split points, and `[bound columns | free columns]` for `T(v_b, B)`,
//! which decides heaviness. A canonical box constrains a *prefix* of the
//! free columns plus at most one range, so both layouts make every count a
//! contiguous node range at one trie depth, which
//! [`SortedIndex::rows`] maps to its row count.
//!
//! The oracle is a compression-time tool: Algorithm 2 answers from the
//! tree, the dictionary and the join's own tries, so nothing resident
//! holds a [`CostEstimator`]. A build creates one, costs the tree and the
//! dictionary against it and keeps only its grid
//! ([`CostEstimator::into_domains`]).

use crate::fbox::{box_decomposition, CanonicalBox, FInterval};
use cqc_common::error::{CqcError, Result};
use cqc_common::metrics;
use cqc_common::value::Value;
use cqc_query::AdornedView;
use cqc_storage::{Database, Domain, IndexPool, SortedIndex};
use std::sync::Arc;

/// Per-atom count indexes and exponent.
///
/// Indexes are `Arc`-shared: the access index's column order coincides
/// with the trie order of `cqc_join::plan::ViewPlan`, so a cost oracle
/// built through the same [`IndexPool`] as the plan shares that index
/// instead of re-sorting it — and shares both with every other view the
/// pool has served over the same relation and orders.
#[derive(Debug)]
struct AtomCost {
    /// Sorted `[free cols (enum order) | bound cols]`: the tree side.
    /// `None` once [`CostEstimator::release_tree_side`] has let it go.
    build_index: Option<Arc<SortedIndex>>,
    /// Sorted `[bound cols (bound-head order) | free cols (enum order)]`.
    access_index: Arc<SortedIndex>,
    /// Enumeration positions of this atom's free variables, ascending.
    free_enum: Vec<usize>,
    /// Bound-head positions of this atom's bound variables, ascending.
    bound_pos: Vec<usize>,
    /// `û_F = u_F / α`.
    u_hat: f64,
}

/// The cost oracle for one adorned view under a fixed cover.
#[derive(Debug)]
pub struct CostEstimator {
    atoms: Vec<AtomCost>,
    /// Active domains of the free variables, in enumeration order.
    domains: Vec<Domain>,
    /// The slack α(V_f) of the cover.
    alpha: f64,
}

impl CostEstimator {
    /// Builds the oracle: computes free-variable active domains and the two
    /// sorted indexes per atom.
    ///
    /// `weights[i]` is the cover weight `u_F` of atom `i`; `alpha` its slack
    /// on the free variables.
    ///
    /// # Errors
    ///
    /// Fails on schema mismatches.
    pub fn build(
        view: &AdornedView,
        db: &Database,
        weights: &[f64],
        alpha: f64,
    ) -> Result<CostEstimator> {
        CostEstimator::build_pooled(view, db, weights, alpha, &IndexPool::new())
    }

    /// [`CostEstimator::build`] drawing both per-atom indexes from `pool`:
    /// the access index (`[bound | free]`) has the same column order as
    /// the join plan's trie index, so the two structures build it once
    /// between them.
    ///
    /// # Errors
    ///
    /// Fails on schema mismatches.
    pub fn build_pooled(
        view: &AdornedView,
        db: &Database,
        weights: &[f64],
        alpha: f64,
        pool: &IndexPool,
    ) -> Result<CostEstimator> {
        let query = view.query();
        query.require_natural_join()?;
        query.check_schema(db)?;
        if weights.len() != query.atoms.len() {
            return Err(CqcError::Config(format!(
                "expected {} cover weights, got {}",
                query.atoms.len(),
                weights.len()
            )));
        }
        if alpha < 1.0 - 1e-9 {
            return Err(CqcError::Config(format!("slack α = {alpha} must be ≥ 1")));
        }

        let free_head = view.free_head();
        let bound_head = view.bound_head();
        let all_domains = query.active_domains(db)?;
        let domains: Vec<Domain> = free_head
            .iter()
            .map(|v| all_domains[v.index()].clone())
            .collect();

        let enum_pos_of = |v: cqc_query::Var| free_head.iter().position(|w| *w == v);
        let bound_pos_of = |v: cqc_query::Var| bound_head.iter().position(|w| *w == v);

        let mut atoms = Vec::with_capacity(query.atoms.len());
        for (i, atom) in query.atoms.iter().enumerate() {
            db.require(&atom.relation)?;
            let vars: Vec<cqc_query::Var> = atom.vars().collect();

            // (enum position, schema column) of free vars, ascending.
            let mut free_cols: Vec<(usize, usize)> = vars
                .iter()
                .enumerate()
                .filter_map(|(col, v)| enum_pos_of(*v).map(|p| (p, col)))
                .collect();
            free_cols.sort_unstable();
            // (bound-head position, schema column) of bound vars, ascending.
            let mut bound_cols: Vec<(usize, usize)> = vars
                .iter()
                .enumerate()
                .filter_map(|(col, v)| bound_pos_of(*v).map(|p| (p, col)))
                .collect();
            bound_cols.sort_unstable();

            let build_order: Vec<usize> = free_cols
                .iter()
                .map(|&(_, c)| c)
                .chain(bound_cols.iter().map(|&(_, c)| c))
                .collect();
            let access_order: Vec<usize> = bound_cols
                .iter()
                .map(|&(_, c)| c)
                .chain(free_cols.iter().map(|&(_, c)| c))
                .collect();

            atoms.push(AtomCost {
                build_index: Some(pool.get_or_build(db, &atom.relation, &build_order)?),
                access_index: pool.get_or_build(db, &atom.relation, &access_order)?,
                free_enum: free_cols.iter().map(|&(p, _)| p).collect(),
                bound_pos: bound_cols.iter().map(|&(p, _)| p).collect(),
                u_hat: weights[i] / alpha,
            });
        }

        Ok(CostEstimator {
            atoms,
            domains,
            alpha,
        })
    }

    /// Drops the `[free | bound]` handles once the tree is built: the
    /// dictionary reads only the `[bound | free]` side. An index this
    /// oracle alone held dies here; one its pool still pins dies at the
    /// pool's next [`IndexPool::release`].
    ///
    /// `T(B)` ([`CostEstimator::count_box`], [`PrefixCost`]) must not be
    /// asked afterwards.
    pub fn release_tree_side(&mut self) {
        for atom in &mut self.atoms {
            atom.build_index = None;
        }
    }

    /// Ends the oracle, keeping the rank-space grid — the only part of it
    /// anything reads after the build.
    pub fn into_domains(self) -> Vec<Domain> {
        self.domains
    }

    /// The slack α used for the `û` exponents.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Free-variable active domains (enumeration order).
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Domain sizes (the grid for rank-space geometry).
    pub fn sizes(&self) -> Vec<usize> {
        self.domains.iter().map(Domain::len).collect()
    }

    /// Translates a rank tuple of free variables to values.
    pub fn ranks_to_values(&self, ranks: &[usize]) -> Vec<Value> {
        let mut out = Vec::with_capacity(ranks.len());
        ranks_to_values_into(&self.domains, ranks, &mut out);
        out
    }

    /// Atom `ai`'s tree-side index.
    fn build_index(&self, ai: usize) -> &SortedIndex {
        self.atoms[ai]
            .build_index
            .as_deref()
            .expect("T(B) asked after release_tree_side")
    }

    /// `|R_F(B)|` for atom `ai` — the build-time count (no valuation).
    ///
    /// Allocation-free: the box's constraints are applied by narrowing the
    /// build index depth by depth instead of materializing a prefix vector
    /// — counts are the inner loop of tree construction and dictionary
    /// build, where the old per-call `Vec` was a measurable fraction of
    /// register time.
    pub fn count_box(&self, ai: usize, b: &CanonicalBox) -> usize {
        if b.is_empty() {
            return 0;
        }
        metrics::record_count_probe();
        let atom = &self.atoms[ai];
        let ix = self.build_index(ai);
        self.narrow_box(ix, &atom.free_enum, ix.root(), 0, b)
    }

    /// The rows of `ix` in the depth-`d` `range` whose free columns —
    /// `free_enum`'s enumeration positions, at the depths from `d` on — lie
    /// in box `b`.
    fn narrow_box(
        &self,
        ix: &SortedIndex,
        free_enum: &[usize],
        range: (usize, usize),
        mut d: usize,
        b: &CanonicalBox,
    ) -> usize {
        let (mut lo, mut hi) = range;
        let p = b.range_pos();
        for &ep in free_enum {
            if lo >= hi {
                return 0;
            }
            let dom = &self.domains[ep];
            if ep < p {
                (lo, hi) = ix.narrow_eq(lo, hi, d, dom.value(b.prefix[ep]));
                d += 1;
            } else {
                if ep == p {
                    let (vlo, vhi) = (dom.value(b.range.0), dom.value(b.range.1));
                    (lo, hi) = ix.narrow_range(lo, hi, d, vlo, vhi);
                }
                break;
            }
        }
        ix.rows(d, lo, hi)
    }

    /// The range of atom `ai`'s access index matching `vb`'s bound values,
    /// at the depth after the bound columns — the box-independent half of
    /// `|R_F(v_b, B)|`. The dictionary build caches this per candidate
    /// valuation and re-narrows only the free columns per box
    /// ([`CostEstimator::count_box_bound_in`]); atoms with no bound
    /// variables return the root range.
    pub fn bound_range(&self, ai: usize, vb: &[Value]) -> (usize, usize) {
        let atom = &self.atoms[ai];
        let ix = &atom.access_index;
        let (mut lo, mut hi) = ix.root();
        for (d, &p) in atom.bound_pos.iter().enumerate() {
            if lo >= hi {
                break;
            }
            (lo, hi) = ix.narrow_eq(lo, hi, d, vb[p]);
        }
        (lo, hi)
    }

    /// `|R_F(v_b, B)|` given the pre-narrowed bound range of
    /// [`CostEstimator::bound_range`]: only the box's free-column
    /// constraints are applied, at the depths after the bound prefix.
    pub fn count_box_bound_in(&self, ai: usize, range: (usize, usize), b: &CanonicalBox) -> usize {
        if b.is_empty() {
            return 0;
        }
        metrics::record_count_probe();
        let atom = &self.atoms[ai];
        let d = atom.bound_pos.len();
        self.narrow_box(&atom.access_index, &atom.free_enum, range, d, b)
    }

    /// `|R_F(v_b, B)|` for atom `ai` — the query-time count.
    pub fn count_box_bound(&self, ai: usize, vb: &[Value], b: &CanonicalBox) -> usize {
        if b.is_empty() {
            return 0;
        }
        self.count_box_bound_in(ai, self.bound_range(ai, vb), b)
    }

    /// Number of atoms (indexable by the `ai` arguments).
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The exponent `û_F = u_F / α` of atom `ai`.
    pub(crate) fn u_hat(&self, ai: usize) -> f64 {
        self.atoms[ai].u_hat
    }

    /// `true` when atom `ai` is constrained by at least one bound variable
    /// (its counts depend on the valuation `v_b`).
    pub(crate) fn has_bound_cols(&self, ai: usize) -> bool {
        !self.atoms[ai].bound_pos.is_empty()
    }

    /// The root range of atom `ai`'s access index — the
    /// [`CostEstimator::bound_range`] of an atom with no bound variables.
    pub(crate) fn full_range(&self, ai: usize) -> (usize, usize) {
        self.atoms[ai].access_index.root()
    }

    /// `T(B) = Π_F |R_F(B)|^{û_F}` (atoms with `û_F = 0` contribute 1, the
    /// `0^0 = 1` convention of AGM-style bounds).
    pub fn t_box(&self, b: &CanonicalBox) -> f64 {
        if b.is_empty() {
            return 0.0;
        }
        let mut t = 1.0f64;
        for ai in 0..self.atoms.len() {
            let uh = self.atoms[ai].u_hat;
            if uh <= 1e-12 {
                continue;
            }
            let c = self.count_box(ai, b) as f64;
            if c == 0.0 {
                return 0.0;
            }
            t *= c.powf(uh);
        }
        t
    }

    /// `T(v_b, B)`.
    pub fn t_box_bound(&self, vb: &[Value], b: &CanonicalBox) -> f64 {
        if b.is_empty() {
            return 0.0;
        }
        let mut t = 1.0f64;
        for ai in 0..self.atoms.len() {
            let uh = self.atoms[ai].u_hat;
            if uh <= 1e-12 {
                continue;
            }
            let c = self.count_box_bound(ai, vb, b) as f64;
            if c == 0.0 {
                return 0.0;
            }
            t *= c.powf(uh);
        }
        t
    }

    /// `T(I) = Σ_{B ∈ B(I)} T(B)`.
    pub fn t_interval(&self, i: &FInterval, sizes: &[usize]) -> f64 {
        box_decomposition(i, sizes)
            .iter()
            .map(|b| self.t_box(b))
            .sum()
    }

    /// `T(v_b, I)`.
    pub fn t_interval_bound(&self, vb: &[Value], i: &FInterval, sizes: &[usize]) -> f64 {
        box_decomposition(i, sizes)
            .iter()
            .map(|b| self.t_box_bound(vb, b))
            .sum()
    }
}

/// One weighted atom of a [`PrefixCost`]: its build-index range matching
/// the fixed prefix.
#[derive(Debug, Clone, Copy)]
struct PrefixAtom {
    ai: usize,
    lo: usize,
    hi: usize,
    /// Build-index depth of the range, and of the atom's first free column
    /// at or after the ranged position (= how many of its columns the
    /// prefix fixed).
    depth: usize,
    /// `|R_F(prefix)|^{û_F}` when the atom does not contain the ranged
    /// position — it is the same for every range.
    constant: Option<f64>,
}

/// `T(⟨prefix, [r_lo, r_hi], □…⟩)` as a function of the range, for a
/// prefix that grows one rank at a time — the search space of Lemma 3.
///
/// Each atom is narrowed by the prefix once (on [`PrefixCost::reset`] /
/// [`PrefixCost::push`]); a range then costs one binary-searched
/// `narrow_range` per atom that contains the ranged position and nothing
/// for the others. Factors multiply in atom order over exactly the counts
/// [`CostEstimator::t_box`] would see, so [`PrefixCost::t`] is
/// bit-identical to `t_box` of the same box.
#[derive(Debug)]
pub struct PrefixCost<'a> {
    est: &'a CostEstimator,
    /// The atoms with `û_F > 0`, in atom order.
    atoms: Vec<PrefixAtom>,
    /// Length of the fixed prefix = the ranged position.
    p: usize,
}

impl<'a> PrefixCost<'a> {
    /// An oracle over the empty prefix.
    pub fn new(est: &'a CostEstimator) -> PrefixCost<'a> {
        let mut pc = PrefixCost {
            est,
            atoms: Vec::with_capacity(est.atoms.len()),
            p: 0,
        };
        pc.reset(&[]);
        pc
    }

    /// Replaces the prefix, keeping the buffer.
    pub fn reset(&mut self, prefix: &[usize]) {
        self.atoms.clear();
        for (ai, atom) in self.est.atoms.iter().enumerate() {
            if atom.u_hat > 1e-12 {
                let (lo, hi) = self.est.build_index(ai).root();
                self.atoms.push(PrefixAtom {
                    ai,
                    lo,
                    hi,
                    depth: 0,
                    constant: None,
                });
            }
        }
        self.p = 0;
        self.fix_constants();
        for &rank in prefix {
            self.push(rank);
        }
    }

    /// Extends the prefix by `rank` at the current ranged position.
    pub fn push(&mut self, rank: usize) {
        let v = self.est.domains[self.p].value(rank);
        // The atoms that contain the ranged position are the non-constant
        // ones.
        for a in self.atoms.iter_mut().filter(|a| a.constant.is_none()) {
            if a.lo < a.hi {
                metrics::record_count_probe();
                let index = self.est.build_index(a.ai);
                (a.lo, a.hi) = index.narrow_eq(a.lo, a.hi, a.depth, v);
            }
            a.depth += 1;
        }
        self.p += 1;
        self.fix_constants();
    }

    fn fix_constants(&mut self) {
        for a in &mut self.atoms {
            let atom = &self.est.atoms[a.ai];
            a.constant = (atom.free_enum.get(a.depth) != Some(&self.p)).then(|| {
                let rows = self.est.build_index(a.ai).rows(a.depth, a.lo, a.hi);
                (rows as f64).powf(atom.u_hat)
            });
        }
    }

    /// `T(⟨prefix, [r_lo, r_hi]⟩)`; 0 for an empty range.
    pub fn t(&self, r_lo: usize, r_hi: usize) -> f64 {
        if r_lo > r_hi {
            return 0.0;
        }
        let dom = &self.est.domains[self.p];
        let (vlo, vhi) = (dom.value(r_lo), dom.value(r_hi));
        let mut t = 1.0f64;
        for a in &self.atoms {
            let factor = match a.constant {
                Some(f) => f,
                None => {
                    metrics::record_count_probe();
                    let atom = &self.est.atoms[a.ai];
                    let index = self.est.build_index(a.ai);
                    let (l, h) = index.narrow_range(a.lo, a.hi, a.depth, vlo, vhi);
                    (index.rows(a.depth, l, h) as f64).powf(atom.u_hat)
                }
            };
            if factor == 0.0 {
                return 0.0;
            }
            t *= factor;
        }
        t
    }
}

/// Translates a rank tuple over the grid `domains` to values, into a
/// reused buffer (cleared first) — the per-answer form the enumerators use.
pub fn ranks_to_values_into(domains: &[Domain], ranks: &[usize], out: &mut Vec<Value>) {
    out.clear();
    out.extend(ranks.iter().zip(domains).map(|(&r, d)| d.value(r)));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cqc_query::parser::parse_adorned;
    use cqc_storage::Relation;

    /// The running example instance (Example 13).
    pub(crate) fn running_example() -> (AdornedView, Database) {
        let mut db = Database::new();
        db.add(Relation::new(
            "R1",
            3,
            vec![
                vec![1, 1, 1],
                vec![1, 1, 2],
                vec![1, 2, 1],
                vec![2, 1, 1],
                vec![3, 1, 1],
            ],
        ))
        .unwrap();
        db.add(Relation::new(
            "R2",
            3,
            vec![
                vec![1, 1, 2],
                vec![1, 2, 1],
                vec![1, 2, 2],
                vec![2, 1, 1],
                vec![2, 1, 2],
            ],
        ))
        .unwrap();
        db.add(Relation::new(
            "R3",
            3,
            vec![
                vec![1, 1, 1],
                vec![1, 1, 2],
                vec![1, 2, 1],
                vec![2, 1, 1],
                vec![2, 1, 2],
            ],
        ))
        .unwrap();
        let view = parse_adorned(
            "Q(x, y, z, w1, w2, w3) :- R1(w1, x, y), R2(w2, y, z), R3(w3, x, z)",
            "fffbbb",
        )
        .unwrap();
        (view, db)
    }

    pub(crate) fn running_estimator() -> CostEstimator {
        let (view, db) = running_example();
        CostEstimator::build(&view, &db, &[1.0, 1.0, 1.0], 2.0).unwrap()
    }

    #[test]
    fn example_13_t_of_root_interval() {
        let est = running_estimator();
        let sizes = est.sizes();
        assert_eq!(sizes, vec![2, 2, 2]);
        let root = FInterval::full(&sizes).unwrap();
        let t = est.t_interval(&root, &sizes);
        // √(3·3·4) + √(1·2·4) + √(1·3·1) + 0 ≈ 10.56.
        let expect = 36.0f64.sqrt() + 8.0f64.sqrt() + 3.0f64.sqrt();
        assert!(
            (t - expect).abs() < 1e-9,
            "T(I(r)) = {t}, expected {expect}"
        );
        assert!((t - 10.56).abs() < 0.01);
    }

    #[test]
    fn example_13_t_of_bound_valuation() {
        let est = running_estimator();
        let sizes = est.sizes();
        let root = FInterval::full(&sizes).unwrap();
        let t = est.t_interval_bound(&[1, 1, 1], &root, &sizes);
        // √2 + 2 + 1 ≈ 4.414; with τ = 4 the pair (v_b, I(r)) is heavy.
        let expect = 2.0f64.sqrt() + 2.0 + 1.0;
        assert!((t - expect).abs() < 1e-9, "T(v_b, I(r)) = {t}");
        assert!(t > 4.0);
    }

    #[test]
    fn example_14_first_box_count() {
        // T([⟨1,1,1⟩,⟨1,1,1⟩]) = √(3·1·2) ≈ 2.449.
        let est = running_estimator();
        let b = CanonicalBox::unit(&[0, 0, 0]);
        let t = est.t_box(&b);
        assert!((t - 6.0f64.sqrt()).abs() < 1e-9, "{t}");
        // Individual counts: |R1(x=1,y=1)| = 3, |R2(y=1,z=1)| = 1,
        // |R3(x=1,z=1)| = 2.
        assert_eq!(est.count_box(0, &b), 3);
        assert_eq!(est.count_box(1, &b), 1);
        assert_eq!(est.count_box(2, &b), 2);
    }

    #[test]
    fn bound_counts_match_manual_filter() {
        let est = running_estimator();
        // Box ⟨1,1,[1,2]⟩ with v_b = (1,1,1):
        // |R1(w1=1, x=1, y=1)| = 1, |R2(w2=1, y=1, z∈[1,2])| = 1,
        // |R3(w3=1, x=1, z∈[1,2])| = 2.
        let b = CanonicalBox {
            prefix: vec![0, 0],
            range: (0, 1),
        };
        assert_eq!(est.count_box_bound(0, &[1, 1, 1], &b), 1);
        assert_eq!(est.count_box_bound(1, &[1, 1, 1], &b), 1);
        assert_eq!(est.count_box_bound(2, &[1, 1, 1], &b), 2);
        assert!((est.t_box_bound(&[1, 1, 1], &b) - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_boxes_cost_zero() {
        let est = running_estimator();
        let empty = CanonicalBox {
            prefix: vec![0],
            range: (1, 0),
        };
        assert_eq!(est.t_box(&empty), 0.0);
        assert_eq!(est.count_box(0, &empty), 0);
    }

    #[test]
    fn t_interval_bound_subadditive_under_split() {
        // Lemma 2 consequence: splitting an interval never increases total T.
        let est = running_estimator();
        let sizes = est.sizes();
        let root = FInterval::full(&sizes).unwrap();
        let whole = est.t_interval(&root, &sizes);
        let left = FInterval {
            lo: vec![0, 0, 0],
            hi: vec![0, 1, 1],
        };
        let right = FInterval {
            lo: vec![1, 0, 0],
            hi: vec![1, 1, 1],
        };
        let parts = est.t_interval(&left, &sizes) + est.t_interval(&right, &sizes);
        assert!(parts <= whole + 1e-9, "split {parts} > whole {whole}");
    }

    #[test]
    fn zero_weight_atoms_are_skipped() {
        let (view, db) = running_example();
        // Cover (2, 2, 0) with slack on free vars: x covered by R1 (2) and
        // R3 (0) → 2; y by R1+R2 → 4; z by R2+R3 → 2; α = 2.
        let est = CostEstimator::build(&view, &db, &[2.0, 2.0, 0.0], 2.0).unwrap();
        let b = CanonicalBox::unit(&[0, 0, 0]);
        // T = 3^1 · 1^1 (R3 skipped).
        assert!((est.t_box(&b) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pooled_build_shares_indexes_and_counts_identically() {
        // Two estimators (and a join plan) drawn from one pool must share
        // every identical (relation, order) index — and answer every count
        // exactly like unpooled builds.
        let (view, db) = running_example();
        let pool = IndexPool::new();
        let est = CostEstimator::build_pooled(&view, &db, &[1.0, 1.0, 1.0], 2.0, &pool).unwrap();
        let first = pool.stats();
        assert!(first.builds > 0);
        let again = CostEstimator::build_pooled(&view, &db, &[1.0, 1.0, 1.0], 2.0, &pool).unwrap();
        let first_builds = first.builds;
        assert_eq!(
            pool.stats().builds,
            first_builds,
            "second estimator is all hits"
        );
        // Every ask of the second is a hit: the orders the first sorted,
        // and each relation's own order, which is the stored relation and
        // a hit from the start.
        assert_eq!(pool.stats().hits, 2 * first.hits + first.builds);
        // The trie orders of the join plan coincide with the access
        // indexes: building the plan through the same pool adds no new
        // sorts.
        let plan = cqc_join::plan::ViewPlan::build_pooled(&view, &db, &pool).unwrap();
        assert_eq!(
            pool.stats().builds,
            first_builds,
            "plan trie indexes reuse the access indexes"
        );
        assert_eq!(plan.num_atoms(), 3);
        let unpooled = running_estimator();
        let b = CanonicalBox::unit(&[0, 0, 0]);
        for ai in 0..3 {
            assert_eq!(est.count_box(ai, &b), unpooled.count_box(ai, &b));
            assert_eq!(
                again.count_box_bound(ai, &[1, 1, 1], &b),
                unpooled.count_box_bound(ai, &[1, 1, 1], &b)
            );
        }
    }

    #[test]
    fn bound_range_factors_the_bound_count() {
        // count_box_bound == count_box_bound_in over the cached bound
        // range, for every atom and valuation of the running example.
        let est = running_estimator();
        let sizes = est.sizes();
        let root = FInterval::full(&sizes).unwrap();
        for w1 in 1..=3u64 {
            for w2 in 1..=2u64 {
                for w3 in 1..=2u64 {
                    let vb = [w1, w2, w3];
                    for ai in 0..3 {
                        let range = est.bound_range(ai, &vb);
                        for b in box_decomposition(&root, &sizes) {
                            assert_eq!(
                                est.count_box_bound_in(ai, range, &b),
                                est.count_box_bound(ai, &vb, &b),
                                "atom {ai} vb {vb:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let (view, db) = running_example();
        assert!(CostEstimator::build(&view, &db, &[1.0, 1.0], 2.0).is_err());
        assert!(CostEstimator::build(&view, &db, &[1.0, 1.0, 1.0], 0.5).is_err());
    }
}
