//! The Theorem 2 structure: Theorem 1 over a `V_b`-connex decomposition.
//!
//! Given a `V_b`-connex tree decomposition `(T, A)` and a delay assignment
//! `δ`, every non-root bag `t` carries either
//!
//! * a **materialized** bag (when `δ(t) = 0`, the §5.1 regime — exact
//!   constant delay, space `|D|^{ρ*(B_t)}`), or
//! * a **Theorem 1** structure over the bag-local projections with knob
//!   `τ_t = |D|^{δ(t)}` and the cover minimizing `ρ⁺_t` (eq. 3), giving
//!   space `Õ(|D|^{ρ⁺_t})` and per-bag delay `Õ(|D|^{δ(t)})`.
//!
//! After construction, the bottom-up semijoin fixup of Algorithm 4 flips a
//! dictionary 1-entry (or drops a materialized row) whenever no valuation
//! in its interval extends to an answer in *every* child subtree, so that a
//! `1` seen during enumeration guarantees progress (Prop. 17).
//!
//! Answering follows Algorithm 5: the bags are walked in pre-order; a bag
//! that has never produced a tuple for the current ancestor valuation
//! backtracks to its *tree parent* (independence across sibling branches —
//! this is what makes the total delay `Õ(|D|^h)` with the δ-height `h`,
//! multiplicative along a branch but additive across branches), while a
//! bag that exhausts after producing backtracks to its pre-order
//! predecessor, enumerating the cartesian product across branches.

use crate::theorem1::Theorem1Structure;
use cqc_common::error::{CqcError, Result};
use cqc_common::heap::HeapSize;
use cqc_common::metrics;
use cqc_common::value::{Tuple, Value};
use cqc_decomp::{search_connex, Objective, TreeDecomposition};
use cqc_factorized::bag::{bag_local_components, MaterializedBag};
use cqc_lp::covers::rho_plus;
use cqc_query::{AdornedView, Var, VarSet};
use cqc_storage::{Database, Delta, Relation};

/// One bag of the structure.
#[derive(Debug, Clone)]
struct Bag {
    /// Node id in the decomposition.
    node: usize,
    /// Bound variables `V_b^t` (original ids, canonical order).
    bound_vars: Vec<Var>,
    /// Free variables `V_f^t` (original ids, canonical order).
    free_vars: Vec<Var>,
    kind: BagKind,
}

#[derive(Debug, Clone)]
enum BagKind {
    Materialized(MaterializedBag),
    Tradeoff(Box<Theorem1Structure>),
}

/// The Theorem 2 compressed representation.
#[derive(Debug)]
pub struct Theorem2Structure {
    view: AdornedView,
    /// Bags in pre-order of the decomposition (root excluded).
    bags: Vec<Bag>,
    /// Tree parent in `bags` indexes (`None` = the root bag).
    parent_of: Vec<Option<usize>>,
    /// Children in `bags` indexes.
    children_of: Vec<Vec<usize>>,
    root_checks: Vec<(Relation, Vec<Var>)>,
    num_vars: usize,
    delta: Vec<f64>,
}

impl Theorem2Structure {
    /// Builds the structure over an explicit decomposition and delay
    /// assignment (`delta[node]`, 0 at the root).
    ///
    /// # Errors
    ///
    /// Fails for non-natural-join views, invalid or non-connex
    /// decompositions, or LP failures on a bag.
    pub fn build(
        view: &AdornedView,
        db: &Database,
        td: &TreeDecomposition,
        delta: &[f64],
    ) -> Result<Theorem2Structure> {
        let query = view.query();
        query.require_natural_join()?;
        query.check_schema(db)?;
        let h = query.hypergraph();
        td.validate_connex(&h, view.bound_vars())?;
        if delta.len() != td.len() {
            return Err(CqcError::Config(format!(
                "expected {} delay entries, got {}",
                td.len(),
                delta.len()
            )));
        }
        let db_size = (db.size() as f64).max(2.0);

        let atoms: Vec<(String, Vec<Var>)> = query
            .atoms
            .iter()
            .map(|a| (a.relation.clone(), a.vars().collect()))
            .collect();

        // Build bags in pre-order.
        let pre = td.preorder();
        let mut bags: Vec<Bag> = Vec::with_capacity(pre.len() - 1);
        let mut bag_index_of_node = vec![usize::MAX; td.len()];
        for &t in &pre[1..] {
            let bound = td.bag_bound(t);
            let free = td.bag_free(t);
            let bound_vars: Vec<Var> = bound.iter().collect();
            let free_vars: Vec<Var> = free.iter().collect();
            let kind = if delta[t] <= 1e-9 || free_vars.is_empty() {
                BagKind::Materialized(MaterializedBag::build(t, bound, free, &atoms, db)?)
            } else {
                let (bag_view, bag_db, origins) = bag_local_components(t, bound, free, &atoms, db)?;
                let rp = rho_plus(&h, td.bag(t), free, delta[t])?;
                let weights: Vec<f64> = origins.iter().map(|&i| rp.weights[i]).collect();
                let tau = db_size.powf(delta[t]).max(1.0);
                BagKind::Tradeoff(Box::new(Theorem1Structure::build(
                    &bag_view, &bag_db, &weights, tau,
                )?))
            };
            bag_index_of_node[t] = bags.len();
            bags.push(Bag {
                node: t,
                bound_vars,
                free_vars,
                kind,
            });
        }
        let parent_of: Vec<Option<usize>> = bags
            .iter()
            .map(|b| {
                let p = td.parent(b.node).expect("non-root");
                if p == td.root() {
                    None
                } else {
                    Some(bag_index_of_node[p])
                }
            })
            .collect();
        let mut children_of: Vec<Vec<usize>> = vec![Vec::new(); bags.len()];
        for (i, p) in parent_of.iter().enumerate() {
            if let Some(p) = p {
                children_of[*p].push(i);
            }
        }

        let vb = view.bound_vars();
        let mut root_checks = Vec::new();
        for atom in &query.atoms {
            let vars: Vec<Var> = atom.vars().collect();
            if vars.iter().all(|v| vb.contains(*v)) {
                root_checks.push((db.require(&atom.relation)?.clone(), vars));
            }
        }

        let mut s = Theorem2Structure {
            view: view.clone(),
            bags,
            parent_of,
            children_of,
            root_checks,
            num_vars: query.num_vars(),
            delta: delta.to_vec(),
        };
        s.semijoin_fixup(td);
        Ok(s)
    }

    /// End-to-end convenience: searches a decomposition minimizing the
    /// δ-height under the space budget `|D|^{budget_exp}` and optimizes the
    /// per-bag delays (§6).
    pub fn build_with_budget(
        view: &AdornedView,
        db: &Database,
        budget_exp: f64,
    ) -> Result<Theorem2Structure> {
        let query = view.query();
        query.require_natural_join()?;
        let h = query.hypergraph();
        let found = search_connex(
            &h,
            view.bound_vars(),
            Objective::MinimizeHeightUnderBudget { budget_exp },
        )?;
        Theorem2Structure::build(view, db, &found.td, &found.delta)
    }

    /// The Algorithm 4 bottom-up pass: every materialized row / dictionary
    /// 1-entry must extend into all child subtrees.
    fn semijoin_fixup(&mut self, td: &TreeDecomposition) {
        let _ = td;
        let all = vec![true; self.bags.len()];
        self.semijoin_fixup_subset(&all);
    }

    /// [`Theorem2Structure::semijoin_fixup`] restricted to the bags flagged
    /// in `dirty`. Sound whenever `dirty` is closed under ancestors of
    /// changed bags: untouched bags were reduced against children whose
    /// state has not changed since, so re-reducing them is a no-op.
    fn semijoin_fixup_subset(&mut self, dirty: &[bool]) {
        // Process deepest-first so children are already truthful.
        // Pre-order indexes: children always have larger indexes, so
        // reversing the bag order is a valid bottom-up sweep.
        for bi in (0..self.bags.len()).rev() {
            if !dirty[bi] || self.children_of[bi].is_empty() {
                continue;
            }
            // Positions of each child's bound vars inside this bag's row
            // (bound prefix then free suffix).
            let row_vars: Vec<Var> = {
                let b = &self.bags[bi];
                b.bound_vars.iter().chain(&b.free_vars).copied().collect()
            };
            let extractors: Vec<(usize, Vec<usize>)> = self.children_of[bi]
                .iter()
                .map(|&ci| {
                    let pos = self.bags[ci]
                        .bound_vars
                        .iter()
                        .map(|bv| {
                            row_vars
                                .iter()
                                .position(|rv| rv == bv)
                                .expect("child bound var must appear in the parent bag")
                        })
                        .collect();
                    (ci, pos)
                })
                .collect();

            match &self.bags[bi].kind {
                BagKind::Materialized(mb) => {
                    let n = mb.len();
                    let mut keep = vec![true; n];
                    for (i, flag) in keep.iter_mut().enumerate() {
                        let row = mb.row(i).to_vec();
                        *flag = extractors.iter().all(|(ci, pos)| {
                            let key: Vec<Value> = pos.iter().map(|&p| row[p]).collect();
                            self.probe_subtree(*ci, &key)
                        });
                    }
                    if let BagKind::Materialized(mb) = &mut self.bags[bi].kind {
                        let mut it = keep.into_iter();
                        mb.retain(|_| it.next().unwrap());
                    }
                }
                BagKind::Tradeoff(t1) => {
                    // Collect entries to flip, then apply.
                    let mut flips: Vec<(u32, Vec<Value>)> = Vec::new();
                    if let Some(tree) = t1.tree() {
                        // One endpoint pair, re-derived per node by the
                        // top-down walk.
                        let mut interval = tree.interval(tree.root());
                        let mut stack = vec![tree.root()];
                        while let Some(c) = stack.pop() {
                            let node = tree.node(c, &mut interval.lo, &mut interval.hi);
                            stack.extend([node.right, node.left].into_iter().flatten());
                            for (key, bit) in t1.dictionary().entries_of(c.node) {
                                if !bit {
                                    continue;
                                }
                                let mut extends = false;
                                for free in t1.enumerate_interval(key, &interval) {
                                    let mut row: Vec<Value> = key.to_vec();
                                    row.extend(free);
                                    if extractors.iter().all(|(ci, pos)| {
                                        let k: Vec<Value> = pos.iter().map(|&p| row[p]).collect();
                                        self.probe_subtree(*ci, &k)
                                    }) {
                                        extends = true;
                                        break;
                                    }
                                }
                                if !extends {
                                    flips.push((c.node, key.to_vec()));
                                }
                            }
                        }
                    }
                    if let BagKind::Tradeoff(t1) = &mut self.bags[bi].kind {
                        for (w, key) in flips {
                            let stored = t1.dictionary_mut().flip(w, &key, false);
                            debug_assert!(stored, "flipped keys come from the dictionary");
                        }
                    }
                }
            }
        }
    }

    /// First-answer probe of the subtree rooted at bag `bi` for the bound
    /// key of that bag: does any bag answer extend through all descendants?
    fn probe_subtree(&self, bi: usize, key: &[Value]) -> bool {
        let bag = &self.bags[bi];
        let children = &self.children_of[bi];
        let nb = bag.bound_vars.len();
        let check_children = |row: &[Value]| -> bool {
            children.iter().all(|&ci| {
                let child_key: Vec<Value> = self.bags[ci]
                    .bound_vars
                    .iter()
                    .map(|bv| {
                        let pos = bag
                            .bound_vars
                            .iter()
                            .chain(&bag.free_vars)
                            .position(|rv| rv == bv)
                            .expect("child bound var in parent bag");
                        row[pos]
                    })
                    .collect();
                self.probe_subtree(ci, &child_key)
            })
        };
        match &bag.kind {
            BagKind::Materialized(mb) => {
                let (lo, hi) = mb.range_for(key);
                (lo..hi).any(|i| {
                    let mut row: Vec<Value> = key.to_vec();
                    row.extend(mb.free_part(i));
                    debug_assert_eq!(row.len(), nb + bag.free_vars.len());
                    check_children(&row)
                })
            }
            BagKind::Tradeoff(t1) => {
                let iter = t1.answer(key).expect("bag key arity is internal");
                for free in iter {
                    let mut row: Vec<Value> = key.to_vec();
                    row.extend(free);
                    if check_children(&row) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Rebuilds only the bags whose local database is touched by `delta`
    /// (already applied to `db`), plus their ancestors, then re-runs the
    /// Algorithm 4 semijoin fixup restricted to that set.
    ///
    /// The fixup is destructive — a dropped materialized row or a cleared
    /// dictionary bit cannot resurrect locally — so a touched bag must be
    /// re-derived from the base relations rather than patched, and every
    /// ancestor of a touched bag must be re-derived too (its reduction was
    /// computed against the old subtree). Bags whose entire subtree is
    /// untouched keep their reduced state, which is exactly what a full
    /// rebuild would recompute for them.
    ///
    /// Returns the maintained structure and the number of re-derived bags,
    /// or `Ok(None)` when the stored view cannot absorb deltas (non-natural
    /// atoms from the Example 3 rewrite).
    ///
    /// # Errors
    ///
    /// Propagates schema and LP errors from the per-bag rebuilds.
    pub fn maintained(
        &self,
        db: &Database,
        delta: &Delta,
    ) -> Result<Option<(Theorem2Structure, usize)>> {
        let query = self.view.query();
        if query.atoms.iter().any(|a| !a.is_natural()) {
            return Ok(None);
        }
        query.check_schema(db)?;
        let h = query.hypergraph();
        let atoms: Vec<(String, Vec<Var>)> = query
            .atoms
            .iter()
            .map(|a| (a.relation.clone(), a.vars().collect()))
            .collect();
        let db_size = (db.size() as f64).max(2.0);

        // A bag is stale iff some atom over a touched relation shares a
        // variable with it: its local database projects every incident
        // relation (Appendix B).
        let mut dirty = vec![false; self.bags.len()];
        for (bi, b) in self.bags.iter().enumerate() {
            let bag_set: VarSet = b.bound_vars.iter().chain(&b.free_vars).copied().collect();
            dirty[bi] = atoms
                .iter()
                .any(|(rel, vars)| delta.touches(rel) && vars.iter().any(|v| bag_set.contains(*v)));
        }
        // Close under ancestors (see above). Reverse order: a bag marked
        // through this loop has its own ancestors chained in the same pass.
        for bi in (0..self.bags.len()).rev() {
            if dirty[bi] {
                let mut p = self.parent_of[bi];
                while let Some(pi) = p {
                    if dirty[pi] {
                        break;
                    }
                    dirty[pi] = true;
                    p = self.parent_of[pi];
                }
            }
        }
        let rebuilt = dirty.iter().filter(|&&d| d).count();

        let mut bags = Vec::with_capacity(self.bags.len());
        for (bi, b) in self.bags.iter().enumerate() {
            let kind = if dirty[bi] {
                let bound: VarSet = b.bound_vars.iter().copied().collect();
                let free: VarSet = b.free_vars.iter().copied().collect();
                if self.delta[b.node] <= 1e-9 || b.free_vars.is_empty() {
                    BagKind::Materialized(MaterializedBag::build(b.node, bound, free, &atoms, db)?)
                } else {
                    let (bag_view, bag_db, origins) =
                        bag_local_components(b.node, bound, free, &atoms, db)?;
                    let rp = rho_plus(&h, bound.union(free), free, self.delta[b.node])?;
                    let weights: Vec<f64> = origins.iter().map(|&i| rp.weights[i]).collect();
                    let tau = db_size.powf(self.delta[b.node]).max(1.0);
                    BagKind::Tradeoff(Box::new(Theorem1Structure::build(
                        &bag_view, &bag_db, &weights, tau,
                    )?))
                }
            } else {
                b.kind.clone()
            };
            bags.push(Bag {
                node: b.node,
                bound_vars: b.bound_vars.clone(),
                free_vars: b.free_vars.clone(),
                kind,
            });
        }

        // Refresh the root-check snapshots of touched relations from the
        // post-delta database; untouched ones are still current.
        let mut root_checks = Vec::with_capacity(self.root_checks.len());
        for (rel, vars) in &self.root_checks {
            if delta.touches(rel.name()) {
                root_checks.push((db.require(rel.name())?.clone(), vars.clone()));
            } else {
                root_checks.push((rel.clone(), vars.clone()));
            }
        }

        let mut s = Theorem2Structure {
            view: self.view.clone(),
            bags,
            parent_of: self.parent_of.clone(),
            children_of: self.children_of.clone(),
            root_checks,
            num_vars: self.num_vars,
            delta: self.delta.clone(),
        };
        s.semijoin_fixup_subset(&dirty);
        Ok(Some((s, rebuilt)))
    }

    /// Answers an access request (Algorithm 5). Output order is
    /// decomposition-dependent (§3.2); tuples are duplicate-free.
    ///
    /// The returned iterator owns all odometer scratch (valuation, per-bag
    /// cursors with cached bag-level Theorem 1 enumerators, key and emit
    /// buffers); [`Theorem2Iter::reset`] serves further requests from the
    /// same scratch.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn answer(&self, bound_values: &[Value]) -> Result<Theorem2Iter<'_>> {
        let mut it = Theorem2Iter::new(self);
        it.reset(bound_values)?;
        Ok(it)
    }

    /// Push-style answering into `sink` (stopping early if the sink
    /// declines).
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn answer_into(
        &self,
        bound_values: &[Value],
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        self.answer(bound_values)?.drain_into(sink);
        Ok(())
    }

    /// First-answer probe. No answer tuple is materialized.
    pub fn exists(&self, bound_values: &[Value]) -> Result<bool> {
        Ok(self.answer(bound_values)?.advance())
    }

    /// The view definition.
    pub fn view(&self) -> &AdornedView {
        &self.view
    }

    /// Per-bag reports: which decomposition node each bag serves, its
    /// variable split, structure kind and size — the decomposition-level
    /// companion to `CompressedView::describe`.
    pub fn bag_reports(&self) -> Vec<BagReport> {
        self.bags
            .iter()
            .map(|b| match &b.kind {
                BagKind::Materialized(m) => BagReport {
                    node: b.node,
                    bound_vars: b.bound_vars.len(),
                    free_vars: b.free_vars.len(),
                    delta: self.delta[b.node],
                    kind: "materialized",
                    tuples_or_entries: m.len(),
                    heap_bytes: m.heap_bytes(),
                },
                BagKind::Tradeoff(t) => BagReport {
                    node: b.node,
                    bound_vars: b.bound_vars.len(),
                    free_vars: b.free_vars.len(),
                    delta: self.delta[b.node],
                    kind: "theorem-1",
                    tuples_or_entries: t.dictionary().num_entries(),
                    heap_bytes: t.heap_bytes(),
                },
            })
            .collect()
    }

    /// Per-bag statistics.
    pub fn stats(&self) -> Theorem2Stats {
        let mut materialized_tuples = 0usize;
        let mut dict_entries = 0usize;
        let mut tradeoff_bags = 0usize;
        for b in &self.bags {
            match &b.kind {
                BagKind::Materialized(m) => materialized_tuples += m.len(),
                BagKind::Tradeoff(t) => {
                    tradeoff_bags += 1;
                    dict_entries += t.dictionary().num_entries();
                }
            }
        }
        Theorem2Stats {
            bags: self.bags.len(),
            tradeoff_bags,
            materialized_tuples,
            dict_entries,
            heap_bytes: self.heap_bytes(),
            max_delta: self.delta.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// One bag's report (see [`Theorem2Structure::bag_reports`]).
#[derive(Debug, Clone, Copy)]
pub struct BagReport {
    /// Decomposition node id.
    pub node: usize,
    /// Number of bound variables `|V_b^t|`.
    pub bound_vars: usize,
    /// Number of free variables `|V_f^t|`.
    pub free_vars: usize,
    /// The bag's delay exponent δ(t).
    pub delta: f64,
    /// `"materialized"` or `"theorem-1"`.
    pub kind: &'static str,
    /// Materialized tuples, or dictionary entries for delay-tuned bags.
    pub tuples_or_entries: usize,
    /// Owned heap bytes.
    pub heap_bytes: usize,
}

/// Statistics of a Theorem 2 structure.
#[derive(Debug, Clone, Copy)]
pub struct Theorem2Stats {
    /// Number of non-root bags.
    pub bags: usize,
    /// Bags carrying a Theorem 1 structure (δ > 0).
    pub tradeoff_bags: usize,
    /// Total materialized bag tuples.
    pub materialized_tuples: usize,
    /// Total dictionary entries across Theorem 1 bags.
    pub dict_entries: usize,
    /// Owned heap bytes.
    pub heap_bytes: usize,
    /// `max_t δ(t)`.
    pub max_delta: f64,
}

impl HeapSize for Theorem2Structure {
    fn heap_bytes(&self) -> usize {
        self.bags
            .iter()
            .map(|b| {
                b.bound_vars.heap_bytes()
                    + b.free_vars.heap_bytes()
                    + match &b.kind {
                        BagKind::Materialized(m) => m.heap_bytes(),
                        BagKind::Tradeoff(t) => t.heap_bytes(),
                    }
            })
            .sum::<usize>()
            + self
                .root_checks
                .iter()
                .map(|(r, v)| r.heap_bytes() + v.heap_bytes())
                .sum::<usize>()
    }
}

/// Per-bag cursor inside the odometer.
///
/// Delay-tuned bags cache their bag-level [`Theorem1Iter`] across opens
/// (re-seeded via [`Theorem1Iter::reset`]), so re-opening a bag for a new
/// ancestor valuation reuses the bag enumerator's scratch instead of
/// rebuilding it.
struct BagCursor<'a> {
    /// Whether the bag currently holds a bound row.
    live: bool,
    /// `(current row, end row)` for materialized bags.
    mat: (usize, usize),
    /// Cached enumerator for Theorem 1 bags.
    trade: Option<Box<crate::theorem1::Theorem1Iter<'a>>>,
}

/// The Algorithm 5 enumerator.
///
/// Like [`Theorem1Iter`](crate::theorem1::Theorem1Iter), the core is the
/// pair [`Theorem2Iter::advance`] / [`Theorem2Iter::current`]: answers are
/// borrowed from an internal emit buffer and every per-bag binding copies
/// directly from the bag's storage into the valuation — no per-row tuple
/// is allocated. The `Iterator` implementation is a compatibility shim.
pub struct Theorem2Iter<'a> {
    s: &'a Theorem2Structure,
    valuation: Vec<Option<Value>>,
    cursors: Vec<BagCursor<'a>>,
    /// Scratch: the current bag's bound key.
    key: Vec<Value>,
    /// Scratch: the most recent answer (head free-variable order).
    emit: Vec<Value>,
    started: bool,
    done: bool,
}

impl<'a> Theorem2Iter<'a> {
    fn new(s: &'a Theorem2Structure) -> Theorem2Iter<'a> {
        Theorem2Iter {
            s,
            valuation: Vec::new(),
            cursors: s
                .bags
                .iter()
                .map(|_| BagCursor {
                    live: false,
                    mat: (0, 0),
                    trade: None,
                })
                .collect(),
            key: Vec::new(),
            emit: Vec::new(),
            started: false,
            done: false,
        }
    }

    /// Rewinds the iterator to answer a fresh access request, keeping the
    /// per-bag enumerator caches and every scratch buffer.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn reset(&mut self, bound_values: &[Value]) -> Result<()> {
        self.s.view.check_access(bound_values)?;
        self.valuation.clear();
        self.valuation.resize(self.s.num_vars, None);
        for (var, val) in self.s.view.bound_head().iter().zip(bound_values) {
            self.valuation[var.index()] = Some(*val);
        }
        for c in &mut self.cursors {
            c.live = false;
        }
        self.started = false;
        let mut root_ok = true;
        for (rel, vars) in &self.s.root_checks {
            let Theorem2Iter { valuation, key, .. } = self;
            key.clear();
            key.extend(
                vars.iter()
                    .map(|v| valuation[v.index()].expect("bound var valued")),
            );
            if !rel.contains(key) {
                root_ok = false;
                break;
            }
        }
        self.done = !root_ok;
        Ok(())
    }

    /// Opens bag `bi` under the current ancestor valuation; binds the first
    /// tuple if any.
    fn open(&mut self, bi: usize) -> bool {
        let Theorem2Iter {
            s,
            valuation,
            cursors,
            key,
            ..
        } = self;
        let s: &'a Theorem2Structure = s;
        let bag = &s.bags[bi];
        key.clear();
        key.extend(
            bag.bound_vars
                .iter()
                .map(|v| valuation[v.index()].expect("bag bound var set by ancestors")),
        );
        let cur = &mut cursors[bi];
        match &bag.kind {
            BagKind::Materialized(mb) => {
                let (lo, hi) = mb.range_for(key);
                if lo >= hi {
                    cur.live = false;
                    return false;
                }
                cur.live = true;
                cur.mat = (lo, hi);
                for (v, val) in bag.free_vars.iter().zip(mb.free_part(lo)) {
                    valuation[v.index()] = Some(*val);
                }
                true
            }
            BagKind::Tradeoff(t1) => {
                let it = match &mut cur.trade {
                    Some(it) => {
                        it.reset(key).expect("bag key arity is internal");
                        it
                    }
                    None => {
                        let fresh = t1.answer(key).expect("bag key arity is internal");
                        cur.trade.insert(Box::new(fresh))
                    }
                };
                if it.advance() {
                    cur.live = true;
                    for (v, val) in bag.free_vars.iter().zip(it.current()) {
                        valuation[v.index()] = Some(*val);
                    }
                    true
                } else {
                    cur.live = false;
                    false
                }
            }
        }
    }

    /// Advances bag `bi` to its next row under the same ancestor valuation.
    fn advance_bag(&mut self, bi: usize) -> bool {
        let Theorem2Iter {
            s,
            valuation,
            cursors,
            ..
        } = self;
        let bag = &s.bags[bi];
        let cur = &mut cursors[bi];
        if !cur.live {
            return false;
        }
        match &bag.kind {
            BagKind::Materialized(mb) => {
                let (c, end) = cur.mat;
                if c + 1 >= end {
                    return false;
                }
                cur.mat = (c + 1, end);
                for (v, val) in bag.free_vars.iter().zip(mb.free_part(c + 1)) {
                    valuation[v.index()] = Some(*val);
                }
                true
            }
            BagKind::Tradeoff(_) => {
                let it = cur.trade.as_mut().expect("advance on an opened bag");
                if it.advance() {
                    for (v, val) in bag.free_vars.iter().zip(it.current()) {
                        valuation[v.index()] = Some(*val);
                    }
                    true
                } else {
                    false
                }
            }
        }
    }

    fn fill_emit(&mut self) {
        metrics::record_tuple_output();
        let Theorem2Iter {
            s, valuation, emit, ..
        } = self;
        emit.clear();
        emit.extend(
            s.view
                .free_head()
                .iter()
                .map(|v| valuation[v.index()].expect("free var bound by some bag")),
        );
    }

    /// Steps to the next answer; `true` when one is available via
    /// [`Theorem2Iter::current`].
    pub fn advance(&mut self) -> bool {
        if self.done {
            return false;
        }
        let k = self.s.bags.len();
        if k == 0 {
            // Boolean view over the root bag only.
            self.done = true;
            self.fill_emit();
            return true;
        }
        let mut i: usize;
        let mut opening: bool;
        if self.started {
            i = k - 1;
            opening = false;
        } else {
            self.started = true;
            i = 0;
            opening = true;
        }
        loop {
            let ok = if opening {
                self.open(i)
            } else {
                self.advance_bag(i)
            };
            if ok {
                if i + 1 == k {
                    self.fill_emit();
                    return true;
                }
                i += 1;
                opening = true;
            } else if opening {
                // Fresh failure: the ancestor valuation is infeasible for
                // this subtree — backtrack to the tree parent, skipping
                // sibling subtrees (Algorithm 5 lines 6–8).
                match self.s.parent_of[i] {
                    Some(p) => {
                        i = p;
                        opening = false;
                    }
                    None => {
                        // Parent is the root: the access valuation itself
                        // has no extension here, so no answers exist at all.
                        self.done = true;
                        return false;
                    }
                }
            } else {
                // Exhausted after producing: move to the pre-order
                // predecessor (Algorithm 5 lines 10–13).
                if i == 0 {
                    self.done = true;
                    return false;
                }
                i -= 1;
                opening = false;
            }
        }
    }

    /// The answer produced by the last successful
    /// [`Theorem2Iter::advance`], borrowed from the iterator's scratch.
    pub fn current(&self) -> &[Value] {
        &self.emit
    }

    /// Pushes every remaining answer into `sink`, honoring early stops.
    pub fn drain_into(&mut self, sink: &mut impl cqc_common::AnswerSink) {
        while self.advance() {
            if !sink.push(self.current()) {
                return;
            }
        }
    }
}

impl Iterator for Theorem2Iter<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.advance() {
            Some(self.current().to_vec())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_common::value::lex_cmp;
    use cqc_join::naive::evaluate_view;
    use cqc_query::parser::parse_adorned;
    use cqc_query::VarSet;
    use cqc_storage::SortedIndex;
    use std::sync::Arc;

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
        v.sort_unstable_by(|a, b| lex_cmp(a, b));
        v.dedup();
        v
    }

    /// P_4^{bfffb}: R1(x1,x2), …, R4(x4,x5) with endpoints bound — the
    /// Example 10 query at n = 4.
    fn path4() -> (AdornedView, Database) {
        let view = parse_adorned(
            "P(x1, x2, x3, x4, x5) :- R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x5)",
            "bfffb",
        )
        .unwrap();
        let mut db = Database::new();
        let pairs = |shift: u64| -> Vec<(u64, u64)> {
            let mut p = Vec::new();
            for i in 0..6u64 {
                p.push((i, (i * 7 + shift) % 6));
                p.push((i, (i * 3 + shift + 1) % 6));
                p.push(((i + shift) % 6, i));
            }
            p
        };
        db.add(Relation::from_pairs("R1", pairs(0))).unwrap();
        db.add(Relation::from_pairs("R2", pairs(1))).unwrap();
        db.add(Relation::from_pairs("R3", pairs(2))).unwrap();
        db.add(Relation::from_pairs("R4", pairs(3))).unwrap();
        (view, db)
    }

    /// The paper's Example 10 decomposition for n = 4:
    /// root {x1,x5} → {x2,x4 | x1,x5} → {x3 | x2,x4}.
    fn path4_paper_td() -> TreeDecomposition {
        TreeDecomposition::new(
            vec![vs(&[0, 4]), vs(&[0, 1, 3, 4]), vs(&[1, 2, 3])],
            vec![None, Some(0), Some(1)],
        )
        .unwrap()
    }

    #[test]
    fn path4_all_zero_delay_matches_oracle() {
        let (view, db) = path4();
        let td = path4_paper_td();
        let s = Theorem2Structure::build(&view, &db, &td, &[0.0, 0.0, 0.0]).unwrap();
        for a in 0..7u64 {
            for b in 0..7u64 {
                let expect = evaluate_view(&view, &db, &[a, b]).unwrap();
                let got: Vec<Tuple> = s.answer(&[a, b]).unwrap().collect();
                assert_eq!(sorted(got.clone()), expect, "a={a} b={b}");
                assert_eq!(got.len(), expect.len(), "duplicates for a={a} b={b}");
            }
        }
    }

    #[test]
    fn path4_mixed_delays_match_oracle() {
        let (view, db) = path4();
        let td = path4_paper_td();
        for delta in [
            vec![0.0, 0.3, 0.0],
            vec![0.0, 0.0, 0.4],
            vec![0.0, 0.25, 0.25],
            vec![0.0, 0.8, 0.5],
        ] {
            let s = Theorem2Structure::build(&view, &db, &td, &delta).unwrap();
            for a in 0..7u64 {
                for b in 0..7u64 {
                    let expect = evaluate_view(&view, &db, &[a, b]).unwrap();
                    let got: Vec<Tuple> = s.answer(&[a, b]).unwrap().collect();
                    assert_eq!(sorted(got.clone()), expect, "δ={delta:?} a={a} b={b}");
                    assert_eq!(got.len(), expect.len(), "duplicates, δ={delta:?}");
                    assert_eq!(s.exists(&[a, b]).unwrap(), !expect.is_empty());
                }
            }
        }
    }

    #[test]
    fn budget_constructor_end_to_end() {
        let (view, db) = path4();
        for budget in [1.0, 1.5, 2.0] {
            let s = Theorem2Structure::build_with_budget(&view, &db, budget).unwrap();
            for a in 0..6u64 {
                for b in 0..6u64 {
                    let expect = evaluate_view(&view, &db, &[a, b]).unwrap();
                    let got: Vec<Tuple> = s.answer(&[a, b]).unwrap().collect();
                    assert_eq!(sorted(got.clone()), expect, "budget={budget} a={a} b={b}");
                }
            }
        }
    }

    /// Multi-branch decomposition (Figure 2 right): bags on independent
    /// branches under the root enumerate a cartesian product.
    #[test]
    fn figure_2_path6_enumeration() {
        // The paper's C = {v1, v5, v6}: with head order v1..v7 the
        // pattern binds positions 1, 5 and 6.
        let view = parse_adorned(
            "P(v1,v2,v3,v4,v5,v6,v7) :- E1(v1,v2), E2(v2,v3), E3(v3,v4), E4(v4,v5), E5(v5,v6), E6(v6,v7)",
            "bfffbbf",
        )
        .unwrap();
        let mut db = Database::new();
        for (i, name) in ["E1", "E2", "E3", "E4", "E5", "E6"].iter().enumerate() {
            let pairs: Vec<(u64, u64)> = (0..5u64)
                .flat_map(|a| {
                    let i = i as u64;
                    vec![(a, (a + i) % 5), (a, (a * 2 + i) % 5)]
                })
                .collect();
            db.add(Relation::from_pairs(*name, pairs)).unwrap();
        }
        let td = TreeDecomposition::new(
            vec![
                vs(&[0, 4, 5]),
                vs(&[1, 3, 0, 4]),
                vs(&[2, 1, 3]),
                vs(&[6, 5]),
            ],
            vec![None, Some(0), Some(1), Some(0)],
        )
        .unwrap();
        // Example 9's delay assignment.
        let delta = [0.0, 1.0 / 3.0, 1.0 / 6.0, 0.0];
        let s = Theorem2Structure::build(&view, &db, &td, &delta).unwrap();
        for a in 0..5u64 {
            for b in 0..5u64 {
                for c in 0..5u64 {
                    let expect = evaluate_view(&view, &db, &[a, b, c]).unwrap();
                    let got: Vec<Tuple> = s.answer(&[a, b, c]).unwrap().collect();
                    assert_eq!(sorted(got.clone()), expect, "v1={a} v5={b} v6={c}");
                    assert_eq!(got.len(), expect.len(), "duplicates");
                }
            }
        }
    }

    /// Theorem 2 with all-zero delays must agree with the factorized
    /// representation (Prop. 4 ≡ the δ = 0 special case).
    #[test]
    fn zero_delay_agrees_with_factorized() {
        let (view, db) = path4();
        let td = path4_paper_td();
        let t2 = Theorem2Structure::build(&view, &db, &td, &[0.0; 3]).unwrap();
        let fr = cqc_factorized::FactorizedRepresentation::build(&view, &db, &td).unwrap();
        for a in 0..6u64 {
            for b in 0..6u64 {
                let x: Vec<Tuple> = t2.answer(&[a, b]).unwrap().collect();
                let y: Vec<Tuple> = fr.answer(&[a, b]).unwrap().collect();
                assert_eq!(sorted(x), sorted(y));
            }
        }
    }

    #[test]
    fn bag_reports_cover_all_bags() {
        let (view, db) = path4();
        let td = path4_paper_td();
        let s = Theorem2Structure::build(&view, &db, &td, &[0.0, 0.3, 0.0]).unwrap();
        let reports = s.bag_reports();
        assert_eq!(reports.len(), 2);
        // Pre-order: node 1 = {x2,x4 | x1,x5} with δ = 0.3 (theorem-1),
        // node 2 = {x3 | x2,x4} with δ = 0 (materialized).
        assert_eq!(reports[0].node, 1);
        assert_eq!(reports[0].kind, "theorem-1");
        assert_eq!(reports[0].bound_vars, 2);
        assert_eq!(reports[0].free_vars, 2);
        assert!(reports[0].delta > 0.0);
        assert_eq!(reports[1].node, 2);
        assert_eq!(reports[1].kind, "materialized");
        assert_eq!(reports[1].free_vars, 1);
        assert!(reports[1].heap_bytes > 0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (view, db) = path4();
        let td = path4_paper_td();
        // Wrong delta length.
        assert!(Theorem2Structure::build(&view, &db, &td, &[0.0, 0.0]).is_err());
        // Non-connex decomposition (root bag mismatch).
        let bad = TreeDecomposition::new(
            vec![vs(&[0]), vs(&[0, 1, 3, 4]), vs(&[1, 2, 3])],
            vec![None, Some(0), Some(1)],
        )
        .unwrap();
        assert!(Theorem2Structure::build(&view, &db, &bad, &[0.0; 3]).is_err());
    }

    /// Theorem 2 inherits Theorem 1's build-time oracle: a tradeoff bag is
    /// a boxed `Theorem1Structure` over bag-local projections, so its
    /// `[free | bound]` count indexes — private to the bag, never shared —
    /// are freed memory, not dropped handles. On the 3-path with both ends
    /// bound and a `decomposed:1.5` budget the searched decomposition has
    /// a tradeoff bag; the structure is smaller than the parent commit's by
    /// those bags' oracles, still answers the naive join for every bound
    /// valuation, and maintains to what a rebuild builds over a mixed
    /// insert/delete history.
    #[test]
    fn tradeoff_bags_keep_no_oracle_and_stay_exact_across_deltas() {
        // `heap_bytes()` of this instance at 9234dc4, where every tradeoff
        // bag kept its `CostEstimator` (measured by this test's own build
        // line in a checkout of that commit).
        const PARENT_HEAP_BYTES: usize = 14_484;

        let view = cqc_workload::queries::path(3, "bffb").unwrap();
        let names = ["R1", "R2", "R3"];
        let mut rng = cqc_workload::rng(21);
        let mut db = Database::new();
        for name in names {
            db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 90, 10))
                .unwrap();
        }
        let build = |db: &Database| Theorem2Structure::build_with_budget(&view, db, 1.5).unwrap();
        let assert_answers_the_naive_join = |s: &Theorem2Structure, db: &Database, what: &str| {
            for a in 0..10u64 {
                for b in 0..10u64 {
                    let got: Vec<Tuple> = s.answer(&[a, b]).unwrap().collect();
                    let expect = evaluate_view(&view, db, &[a, b]).unwrap();
                    assert_eq!(sorted(got.clone()), expect, "{what}: ({a}, {b})");
                    assert_eq!(got.len(), expect.len(), "{what}: duplicates at ({a}, {b})");
                }
            }
        };

        let mut s = build(&db);
        assert!(s.stats().tradeoff_bags >= 1, "{:?}", s.bag_reports());
        // What the bags' oracles held at the parent: per atom two count
        // indexes over the relation its trie sorts (the same rows under
        // other column orders) and under 128 B of positions and header.
        let tries: Vec<&Arc<SortedIndex>> = s
            .bags
            .iter()
            .filter_map(|b| match &b.kind {
                BagKind::Tradeoff(t1) => Some(t1.base_indexes()),
                BagKind::Materialized(_) => None,
            })
            .flatten()
            .collect();
        let oracle_indexes: usize = tries.iter().map(|ix| 2 * ix.heap_bytes()).sum();
        let now = s.heap_bytes();
        println!(
            "3-path decomposed:1.5 heap_bytes: {PARENT_HEAP_BYTES} at the parent, {now} now \
             ({oracle_indexes} B of bag-oracle indexes)"
        );
        let saved = PARENT_HEAP_BYTES - now;
        assert!(
            (oracle_indexes..=oracle_indexes + 128 * tries.len()).contains(&saved),
            "saved {saved} B, the bag oracles' indexes were {oracle_indexes} B"
        );
        assert_answers_the_naive_join(&s, &db, "built");

        let mut removed = 0;
        for _ in 0..6 {
            let delta = cqc_workload::mixed_delta(&mut rng, &db, &names, 3, 2);
            removed += delta.remove_groups().map(|(_, t)| t.len()).sum::<usize>();
            db.apply(&delta).unwrap();
            let (maintained, _) = s.maintained(&db, &delta).unwrap().expect("natural atoms");
            let rebuilt = build(&db);
            assert_eq!(
                maintained.stats().tradeoff_bags,
                rebuilt.stats().tradeoff_bags
            );
            assert_answers_the_naive_join(&maintained, &db, "maintained");
            assert_answers_the_naive_join(&rebuilt, &db, "rebuilt");
            s = maintained;
        }
        assert!(removed > 0, "the history must delete something");
    }
}
