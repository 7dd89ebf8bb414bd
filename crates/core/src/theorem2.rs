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
//! Bags are derived bottom-up, each reduced by the semijoin pass of
//! Algorithm 4 against its finished children: a materialized bag drops a
//! row, and a delay-tuned bag's dictionary build counts no answer, unless
//! it extends to an answer in *every* child subtree. So a `1` seen during
//! enumeration guarantees progress (Prop. 17), and a `⊥` node is left `⊥`
//! only when its run reaches an output answer within the cap
//! (`crate::dictionary`).
//!
//! Answering follows Algorithm 5: the bags are walked in pre-order; a bag
//! that has never produced a tuple for the current ancestor valuation
//! backtracks to its *tree parent* (independence across sibling branches —
//! this is what makes the total delay `Õ(|D|^h)` with the δ-height `h`,
//! multiplicative along a branch but additive across branches), while a
//! bag that exhausts after producing backtracks to its pre-order
//! predecessor, enumerating the cartesian product across branches.

use crate::bag::{bag_local_components, MaterializedBag};
use crate::theorem1::{Theorem1Iter, Theorem1Structure};
use cqc_common::error::{CqcError, Result};
use cqc_common::heap::HeapSize;
use cqc_common::value::Value;
use cqc_decomp::{search_connex, Objective, TreeDecomposition};
use cqc_lp::covers::rho_plus;
use cqc_query::{AdornedView, ConjunctiveQuery, Hypergraph, Var, VarSet};
use cqc_storage::{Database, Delta, IndexPool, SortedIndex};
use std::sync::Arc;

/// One bag of the structure.
#[derive(Debug, Clone)]
struct Bag {
    /// Node id in the decomposition.
    node: usize,
    /// Bound variables `V_b^t` (original ids, canonical order).
    bound_vars: Box<[Var]>,
    /// Free variables `V_f^t` (original ids, canonical order).
    free_vars: Box<[Var]>,
    kind: BagKind,
}

#[derive(Debug, Clone)]
enum BagKind {
    Materialized(MaterializedBag),
    Tradeoff(Box<Theorem1Structure>),
}

impl HeapSize for Bag {
    fn heap_bytes(&self) -> usize {
        self.bound_vars.heap_bytes()
            + self.free_vars.heap_bytes()
            + match &self.kind {
                BagKind::Materialized(m) => m.heap_bytes(),
                BagKind::Tradeoff(t) => t.heap_bytes(),
            }
    }
}

/// What bags are derived from: the query's atoms over one database.
struct BagSource<'a> {
    h: Hypergraph,
    atoms: Vec<(String, Vec<Var>)>,
    db: &'a Database,
}

impl<'a> BagSource<'a> {
    fn new(query: &ConjunctiveQuery, db: &'a Database) -> BagSource<'a> {
        BagSource {
            h: query.hypergraph(),
            atoms: query
                .atoms
                .iter()
                .map(|a| (a.relation.clone(), a.vars().collect()))
                .collect(),
            db,
        }
    }

    /// Derives bag `node` (split into `bound`/`free` by the decomposition)
    /// from the base relations: materialized when `delta = 0` or nothing is
    /// free, else Theorem 1 over the bag-local projections with
    /// `τ_t = |D|^δ(t)` and the cover minimizing `ρ⁺_t`, whose dictionary
    /// counts only the rows `reaches` accepts.
    fn derive(
        &self,
        node: usize,
        bound: VarSet,
        free: VarSet,
        delta: f64,
        reaches: impl FnMut(&[Value]) -> bool,
    ) -> Result<BagKind> {
        if delta <= 1e-9 || free.is_empty() {
            return Ok(BagKind::Materialized(MaterializedBag::build(
                node,
                bound,
                free,
                &self.atoms,
                self.db,
            )?));
        }
        let (bag_view, bag_db, origins) =
            bag_local_components(node, bound, free, &self.atoms, self.db)?;
        let rp = rho_plus(&self.h, bound.union(free), free, delta)?;
        let weights: Vec<f64> = origins.iter().map(|&i| rp.weights[i]).collect();
        let tau = (self.db.size() as f64).max(2.0).powf(delta).max(1.0);
        Ok(BagKind::Tradeoff(Box::new(
            Theorem1Structure::build_reaching(
                &bag_view,
                &bag_db,
                &weights,
                tau,
                &IndexPool::new(),
                reaches,
            )?,
        )))
    }
}

/// A relation fully contained in `V_b`, checked per access request
/// (§5.1: "a hash index that tests membership for every hyperedge of H
/// contained in V_b"; sorted-relation membership is the same Õ(1)): the
/// database's stored relation, its packed columns narrowed in place.
#[derive(Debug)]
struct RootCheck {
    /// The atom's position in the view's query (it names the relation).
    atom: usize,
    relation: Arc<SortedIndex>,
    vars: Vec<Var>,
}

/// The root checks of `view` — for an all-bound view every relation,
/// which is all of Prop. 1. The handles share the database's allocations.
fn root_checks(view: &AdornedView, db: &Database) -> Result<Vec<RootCheck>> {
    let vb = view.bound_vars();
    let mut checks = Vec::new();
    for (ai, atom) in view.query().atoms.iter().enumerate() {
        let vars: Vec<Var> = atom.vars().collect();
        if vars.iter().all(|v| vb.contains(*v)) {
            let relation = db.get_arc(&atom.relation).ok_or_else(|| {
                CqcError::Schema(format!(
                    "relation `{}` not found in database",
                    atom.relation
                ))
            })?;
            checks.push(RootCheck {
                atom: ai,
                relation,
                vars,
            });
        }
    }
    Ok(checks)
}

/// The Theorem 2 compressed representation.
#[derive(Debug)]
pub struct Theorem2Structure {
    view: AdornedView,
    /// The view's bound and free head variables, taken once at build: a
    /// request binds the first, every answer reads the second.
    bound_head: Box<[Var]>,
    free_head: Box<[Var]>,
    /// Bags in pre-order of the decomposition (root excluded).
    bags: Vec<Bag>,
    /// Tree parent in `bags` indexes (`None` = the root bag).
    parent_of: Vec<Option<usize>>,
    /// Children in `bags` indexes.
    children_of: Vec<Vec<usize>>,
    root_checks: Vec<RootCheck>,
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
        let source = BagSource::new(query, db);
        td.validate_connex(&source.h, view.bound_vars())?;
        if delta.len() != td.len() {
            return Err(CqcError::Config(format!(
                "expected {} delay entries, got {}",
                td.len(),
                delta.len()
            )));
        }

        // Bags in pre-order, derived below.
        let pre = td.preorder();
        let mut bags: Vec<Bag> = Vec::with_capacity(pre.len() - 1);
        let mut bag_index_of_node = vec![usize::MAX; td.len()];
        for &t in &pre[1..] {
            bag_index_of_node[t] = bags.len();
            bags.push(Bag {
                node: t,
                bound_vars: td.bag_bound(t).iter().collect(),
                free_vars: td.bag_free(t).iter().collect(),
                kind: BagKind::Materialized(MaterializedBag::default()),
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

        let mut s = Theorem2Structure {
            view: view.clone(),
            bound_head: view.bound_head().into_boxed_slice(),
            free_head: view.free_head().into_boxed_slice(),
            bags,
            parent_of,
            children_of,
            root_checks: root_checks(view, db)?,
            num_vars: query.num_vars(),
            delta: delta.to_vec(),
        };
        let all = vec![true; s.bags.len()];
        s.derive_bags(&source, &all)?;
        Ok(s)
    }

    /// Propositions 2/4 end to end — the factorized (d-representation)
    /// recipe: a width-minimal connex decomposition with `δ ≡ 0`, so every
    /// bag is materialized and semijoin-reduced. Constant delay in
    /// `O(|D|^{fhw(H | V_b)})` space; linear for acyclic full enumeration.
    /// For an all-bound view the decomposition is the root bag `{V_b}`
    /// alone: Proposition 1, linear space and a membership probe per atom.
    pub fn build_constant_delay(view: &AdornedView, db: &Database) -> Result<Theorem2Structure> {
        let query = view.query();
        query.require_natural_join()?;
        let found = search_connex(
            &query.hypergraph(),
            view.bound_vars(),
            Objective::MinimizeWidth,
        )?;
        Theorem2Structure::build(view, db, &found.td, &found.delta)
    }

    /// Derives the bags flagged in `dirty` from the base relations,
    /// deepest first, each reduced by Algorithm 4's semijoin pass against
    /// its children, which are final by then: a materialized bag keeps only
    /// the rows that extend into every child subtree, and a delay-tuned
    /// bag's dictionary counts only such answers while it is built, so a
    /// stored `1` guarantees progress (Prop. 17) with no bit to clear
    /// afterwards. Sound whenever `dirty` is closed under ancestors of
    /// changed bags: an untouched bag was reduced against children whose
    /// state has not changed since.
    fn derive_bags(&mut self, source: &BagSource<'_>, dirty: &[bool]) -> Result<()> {
        // Per bag: where its bound variables sit inside its tree parent's
        // row (bound prefix then free suffix).
        let key_pos: Vec<Vec<usize>> = (0..self.bags.len())
            .map(|ci| {
                let Some(p) = self.parent_of[ci] else {
                    return Vec::new();
                };
                let parent = &self.bags[p];
                self.bags[ci]
                    .bound_vars
                    .iter()
                    .map(|bv| {
                        parent
                            .bound_vars
                            .iter()
                            .chain(&parent.free_vars)
                            .position(|rv| rv == bv)
                            .expect("child bound var must appear in the parent bag")
                    })
                    .collect()
            })
            .collect();

        // Pre-order indexes: children always have larger indexes, so
        // reversing the bag order is a valid bottom-up sweep.
        for bi in (0..self.bags.len()).rev() {
            if !dirty[bi] {
                continue;
            }
            // The bag being derived is a placeholder in the structure
            // (both callers put one there) while the probes, which only
            // look below it, borrow the rest.
            let mut probe = SubtreeProbe::new(self, &key_pos);
            let b = &self.bags[bi];
            let (bound, free) = (
                b.bound_vars.iter().copied().collect(),
                b.free_vars.iter().copied().collect(),
            );
            let mut kind = source.derive(b.node, bound, free, self.delta[b.node], |row| {
                probe.extends_below(bi, row)
            })?;
            match &mut kind {
                BagKind::Materialized(mb) if !self.children_of[bi].is_empty() => {
                    mb.retain(|row| probe.extends_below(bi, row));
                }
                _ => {}
            }
            self.bags[bi].kind = kind;
        }
        Ok(())
    }

    /// Re-derives only the bags whose local database is touched by `delta`
    /// (already applied to `db`), plus their ancestors, each reduced
    /// against its children as a build reduces it (Algorithm 4).
    ///
    /// The reduction is destructive — a dropped materialized row or a
    /// pair stored as `0` cannot resurrect locally — so a touched bag must
    /// be re-derived from the base relations rather than patched, and
    /// every ancestor of a touched bag must be re-derived too (its
    /// reduction was computed against the old subtree). Bags whose entire subtree is
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
        let source = BagSource::new(query, db);

        // A bag is stale iff some atom over a touched relation shares a
        // variable with it: its local database projects every incident
        // relation (Appendix B).
        let mut dirty = vec![false; self.bags.len()];
        for (bi, b) in self.bags.iter().enumerate() {
            let bag_set: VarSet = b.bound_vars.iter().chain(&b.free_vars).copied().collect();
            dirty[bi] = source
                .atoms
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

        // A stale bag's kind is replaced by `derive_bags`: not cloned.
        let bags = self
            .bags
            .iter()
            .zip(&dirty)
            .map(|(b, &stale)| Bag {
                node: b.node,
                bound_vars: b.bound_vars.clone(),
                free_vars: b.free_vars.clone(),
                kind: if stale {
                    BagKind::Materialized(MaterializedBag::default())
                } else {
                    b.kind.clone()
                },
            })
            .collect();

        let mut s = Theorem2Structure {
            view: self.view.clone(),
            bound_head: self.bound_head.clone(),
            free_head: self.free_head.clone(),
            bags,
            parent_of: self.parent_of.clone(),
            children_of: self.children_of.clone(),
            // Re-taken from the post-delta database: an untouched
            // relation is still the allocation held before.
            root_checks: root_checks(&self.view, db)?,
            num_vars: self.num_vars,
            delta: self.delta.clone(),
        };
        s.derive_bags(&source, &dirty)?;
        Ok(Some((s, rebuilt)))
    }

    /// An un-started cursor over this structure. It owns all odometer
    /// scratch (valuation, per-bag cursors with cached bag-level Theorem 1
    /// cursors, key and emit buffers), reused across
    /// [`Theorem2Iter::answer_into`] calls.
    pub fn enumerator(&self) -> Theorem2Iter<'_> {
        Theorem2Iter {
            s: self,
            valuation: Vec::new(),
            cursors: self
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
            done: true,
        }
    }

    /// One-shot [`Theorem2Iter::answer_into`] on a fresh cursor.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn answer_into(
        &self,
        bound_values: &[Value],
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        self.enumerator().answer_into(bound_values, sink)
    }

    /// First-answer probe. No answer tuple is materialized.
    pub fn exists(&self, bound_values: &[Value]) -> Result<bool> {
        let mut it = self.enumerator();
        it.reset(bound_values)?;
        Ok(it.advance())
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
            .map(|b| {
                let (kind, tuples_or_entries, keys, domain_values, widths) = match &b.kind {
                    BagKind::Materialized(m) => (
                        "materialized",
                        m.len(),
                        m.num_keys(),
                        m.domain_values(),
                        m.widths(),
                    ),
                    BagKind::Tradeoff(t) => (
                        "theorem-1",
                        t.dictionary().num_entries(),
                        0,
                        0,
                        BagWidths::default(),
                    ),
                };
                BagReport {
                    node: b.node,
                    bound_vars: b.bound_vars.len(),
                    free_vars: b.free_vars.len(),
                    delta: self.delta[b.node],
                    kind,
                    tuples_or_entries,
                    keys,
                    domain_values,
                    widths,
                    heap_bytes: b.heap_bytes(),
                }
            })
            .collect()
    }

    /// The Theorem 1 structures of the delay-tuned bags.
    pub(crate) fn tradeoff_structures(&self) -> impl Iterator<Item = &Theorem1Structure> + '_ {
        self.bags.iter().filter_map(|b| match &b.kind {
            BagKind::Tradeoff(t) => Some(&**t),
            BagKind::Materialized(_) => None,
        })
    }

    /// Per-bag statistics.
    pub fn stats(&self) -> Theorem2Stats {
        let mut materialized_tuples = 0usize;
        let mut materialized_bytes = 0usize;
        let mut dict_entries = 0usize;
        let mut tradeoff_bags = 0usize;
        let mut tree_count_probes = 0u64;
        for b in &self.bags {
            match &b.kind {
                BagKind::Materialized(m) => {
                    materialized_tuples += m.len();
                    materialized_bytes += m.heap_bytes();
                }
                BagKind::Tradeoff(t) => {
                    tradeoff_bags += 1;
                    dict_entries += t.dictionary().num_entries();
                    tree_count_probes += t.tree().map_or(0, |tree| tree.build_count_probes());
                }
            }
        }
        Theorem2Stats {
            bags: self.bags.len(),
            tradeoff_bags,
            materialized_tuples,
            materialized_bytes,
            dict_entries,
            tree_count_probes,
            heap_bytes: self.heap_bytes(),
            max_delta: self.delta.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// First-answer probes below one bag while it is derived, with the
/// scratch they reuse across that bag's rows.
struct SubtreeProbe<'a> {
    s: &'a Theorem2Structure,
    /// Per bag: positions of its bound variables in its tree parent's row.
    key_pos: &'a [Vec<usize>],
    scratch: Vec<ProbeScratch<'a>>,
}

/// One bag's probe scratch: its bound key and, for a delay-tuned bag, the
/// `[bound | free]` row under test and the enumerator producing it.
#[derive(Default)]
struct ProbeScratch<'a> {
    key: Vec<Value>,
    row: Vec<Value>,
    answers: Option<Theorem1Iter<'a>>,
}

impl<'a> SubtreeProbe<'a> {
    fn new(s: &'a Theorem2Structure, key_pos: &'a [Vec<usize>]) -> SubtreeProbe<'a> {
        SubtreeProbe {
            s,
            key_pos,
            scratch: s.bags.iter().map(|_| ProbeScratch::default()).collect(),
        }
    }

    /// Does `row` of bag `bi` extend into every child subtree?
    fn extends_below(&mut self, bi: usize, row: &[Value]) -> bool {
        let s = self.s;
        s.children_of[bi]
            .iter()
            .all(|&ci| self.subtree_has_answer(ci, row))
    }

    /// Does the subtree rooted at bag `ci` hold an answer under
    /// `parent_row` of its tree parent?
    fn subtree_has_answer(&mut self, ci: usize, parent_row: &[Value]) -> bool {
        let s = self.s;
        let key = &mut self.scratch[ci].key;
        key.clear();
        key.extend(self.key_pos[ci].iter().map(|&p| parent_row[p]));
        let t1 = match &s.bags[ci].kind {
            // Already reduced when its parent is processed (bottom-up
            // order; `dirty` is ancestor-closed): a row with this key
            // extends through the whole subtree.
            BagKind::Materialized(mb) => return mb.contains_key(key),
            BagKind::Tradeoff(t1) => t1,
        };
        // A 1-bit promises progress somewhere in its interval, not below
        // every answer: enumerate and look below each, with this bag's
        // scratch lifted out across the recursion.
        let mut sc = std::mem::take(&mut self.scratch[ci]);
        let answers = sc.answers.get_or_insert_with(|| t1.enumerator());
        answers.reset(&sc.key).expect("bag key arity is internal");
        let mut found = false;
        while !found && answers.advance() {
            sc.row.clear();
            sc.row.extend_from_slice(&sc.key);
            sc.row.extend_from_slice(answers.current());
            found = self.extends_below(ci, &sc.row);
        }
        self.scratch[ci] = sc;
        found
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
    /// Distinct bound prefixes a materialized bag stores (0 for a
    /// delay-tuned bag).
    pub keys: usize,
    /// Distinct free values a materialized bag stores, summed over its
    /// free columns (0 for a delay-tuned bag).
    pub domain_values: usize,
    /// Bits per value of a materialized bag's packed columns (all 0 for a
    /// delay-tuned bag).
    pub widths: BagWidths,
    /// Owned heap bytes.
    pub heap_bytes: usize,
}

/// Bits per value of a materialized bag's packed columns
/// (docs/ARCHITECTURE.md, "Packed integer columns").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BagWidths {
    /// Bound-prefix values, `bound_vars` per key.
    pub keys: u32,
    /// Row offsets, one per key plus one.
    pub offsets: u32,
    /// Free-column ranks, `free_vars` per row.
    pub ranks: u32,
    /// Domain values, one per distinct free value of a column.
    pub values: u32,
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
    /// Heap bytes of the materialized bags' storage (keys, offsets, free
    /// ranks and domains; not the variable lists).
    pub materialized_bytes: usize,
    /// Total dictionary entries across Theorem 1 bags.
    pub dict_entries: usize,
    /// Count-index probes the Theorem 1 bags' tree builds spent, summed
    /// (see `Theorem1Stats::tree_count_probes`).
    pub tree_count_probes: u64,
    /// Owned heap bytes.
    pub heap_bytes: usize,
    /// `max_t δ(t)`.
    pub max_delta: f64,
}

impl Theorem2Stats {
    /// The counts as `(name, value)` pairs, in field order: what a
    /// `Stats` reply carries. `max_t δ(t)` is the view's recipe.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        let Theorem2Stats {
            bags,
            tradeoff_bags,
            materialized_tuples,
            materialized_bytes,
            dict_entries,
            tree_count_probes,
            heap_bytes,
            max_delta: _,
        } = *self;
        [
            ("bags", bags),
            ("tradeoff_bags", tradeoff_bags),
            ("materialized_tuples", materialized_tuples),
            ("materialized_bytes", materialized_bytes),
            ("dict_entries", dict_entries),
            ("tree_count_probes", tree_count_probes as usize),
            ("heap_bytes", heap_bytes),
        ]
        .map(|(name, v)| (name, v as u64))
        .into()
    }
}

impl HeapSize for Theorem2Structure {
    /// A root-check relation is the database's allocation: each structure
    /// holding its handle counts its content — the relation's name and its
    /// packed index — as shared sorted indexes are counted once per holder.
    fn heap_bytes(&self) -> usize {
        let atoms = &self.view.query().atoms;
        self.bound_head.heap_bytes()
            + self.free_head.heap_bytes()
            + self.bags.iter().map(HeapSize::heap_bytes).sum::<usize>()
            + self
                .root_checks
                .iter()
                .map(|c| {
                    atoms[c.atom].relation.len() + c.relation.heap_bytes() + c.vars.heap_bytes()
                })
                .sum::<usize>()
    }
}

/// Per-bag cursor inside the odometer.
///
/// A delay-tuned bag keeps its bag-level [`Theorem1Iter`], created at its
/// first open, across opens: re-opening the bag for a new ancestor
/// valuation reuses the bag cursor's scratch instead of rebuilding it.
struct BagCursor<'a> {
    /// Whether the bag currently holds a bound row.
    live: bool,
    /// `(current row, end row)` for materialized bags.
    mat: (usize, usize),
    /// The bag's cursor, for Theorem 1 bags that have been opened.
    trade: Option<Box<Theorem1Iter<'a>>>,
}

/// The Algorithm 5 cursor. Output order is decomposition-dependent (§3.2);
/// tuples are duplicate-free.
///
/// Answers leave through a sink ([`Theorem2Iter::answer_into`]) as slices
/// borrowed from an internal emit buffer, and every per-bag binding decodes
/// directly from the bag's storage into the valuation — neither a row nor
/// a head list is allocated per answer.
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
    /// Answers one request into `sink`, stopping early if the sink
    /// declines, reusing all scratch from previous calls.
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
        while self.advance() {
            if !sink.push(&self.emit) {
                break;
            }
        }
        Ok(())
    }

    /// Rewinds the cursor to a fresh access request, keeping the per-bag
    /// cursors and every scratch buffer.
    fn reset(&mut self, bound_values: &[Value]) -> Result<()> {
        self.s.view.check_access(bound_values)?;
        self.valuation.clear();
        self.valuation.resize(self.s.num_vars, None);
        for (var, val) in self.s.bound_head.iter().zip(bound_values) {
            self.valuation[var.index()] = Some(*val);
        }
        for c in &mut self.cursors {
            c.live = false;
        }
        self.started = false;
        let mut root_ok = true;
        for check in &self.s.root_checks {
            let Theorem2Iter { valuation, key, .. } = self;
            key.clear();
            key.extend(
                check
                    .vars
                    .iter()
                    .map(|v| valuation[v.index()].expect("bound var valued")),
            );
            if !check.relation.contains(key) {
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
                mb.bind(lo, &bag.free_vars, valuation);
                true
            }
            BagKind::Tradeoff(t1) => {
                let it = cur.trade.get_or_insert_with(|| Box::new(t1.enumerator()));
                it.reset(key).expect("bag key arity is internal");
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
                mb.bind(c + 1, &bag.free_vars, valuation);
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
        let Theorem2Iter {
            s, valuation, emit, ..
        } = self;
        emit.clear();
        emit.extend(
            s.free_head
                .iter()
                .map(|v| valuation[v.index()].expect("free var bound by some bag")),
        );
    }

    /// Steps to the next answer — `true` when one is in `emit`.
    fn advance(&mut self) -> bool {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fbox::FInterval;
    use cqc_common::value::{lex_cmp, Tuple};
    use cqc_join::naive::evaluate_view;
    use cqc_query::parser::parse_adorned;
    use cqc_query::VarSet;
    use cqc_storage::Relation;
    use std::sync::Arc;

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    /// The request's answers, in the order a fresh cursor pushes them.
    fn answers(s: &Theorem2Structure, vb: &[Value]) -> Vec<Tuple> {
        let mut block = cqc_common::AnswerBlock::new();
        s.answer_into(vb, &mut block).unwrap();
        block.to_tuples()
    }

    /// Algorithm 5 promises pre-order of the bags, not head order: sort —
    /// and only sort, so a duplicated answer survives — before comparing
    /// with the naive join.
    fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
        v.sort_unstable_by(|a, b| lex_cmp(a, b));
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
                let got = answers(&s, &[a, b]);
                assert_eq!(sorted(got), expect, "a={a} b={b}");
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
                    let got = answers(&s, &[a, b]);
                    assert_eq!(sorted(got), expect, "δ={delta:?} a={a} b={b}");
                    assert_eq!(s.exists(&[a, b]).unwrap(), !expect.is_empty());
                }
            }
        }
    }

    /// Theorem 2 over the decomposition the planner resolves a space
    /// budget of `|D|^budget_exp` to: minimal δ-height, per-bag delays
    /// optimized (§6).
    fn build_budgeted(view: &AdornedView, db: &Database, budget_exp: f64) -> Theorem2Structure {
        let objective = Objective::MinimizeHeightUnderBudget { budget_exp };
        let h = view.query().hypergraph();
        let found = search_connex(&h, view.bound_vars(), objective).unwrap();
        Theorem2Structure::build(view, db, &found.td, &found.delta).unwrap()
    }

    #[test]
    fn budget_constructor_end_to_end() {
        let (view, db) = path4();
        for budget in [1.0, 1.5, 2.0] {
            let s = build_budgeted(&view, &db, budget);
            for a in 0..6u64 {
                for b in 0..6u64 {
                    let expect = evaluate_view(&view, &db, &[a, b]).unwrap();
                    let got = answers(&s, &[a, b]);
                    assert_eq!(sorted(got), expect, "budget={budget} a={a} b={b}");
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
                    let got = answers(&s, &[a, b, c]);
                    assert_eq!(sorted(got), expect, "v1={a} v5={b} v6={c}");
                }
            }
        }
    }

    // The δ ≡ 0 rows below are the d-representation's (Props. 2/4): every
    // bag materialized and reduced, answers in pre-order of the bags. The
    // oracle of each is the naive join, order included: bags hold
    // lexicographically sorted rows, so wherever the pre-order binds the
    // free variables in head order the stream is the naive join's.

    /// Asserts `s` streams exactly the naive join's answers, in its
    /// order, for every key in `keys`, with `exists` agreeing.
    fn assert_streams_naive(
        s: &Theorem2Structure,
        view: &AdornedView,
        db: &Database,
        keys: impl IntoIterator<Item = Vec<Value>>,
    ) {
        assert_eq!(s.stats().tradeoff_bags, 0);
        for key in keys {
            let expect = evaluate_view(view, db, &key).unwrap();
            let got = answers(s, &key);
            assert_eq!(got, expect, "key {key:?}");
            assert_eq!(s.exists(&key).unwrap(), !expect.is_empty(), "key {key:?}");
        }
    }

    fn star_db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs(
            "R1",
            vec![(1, 10), (1, 20), (2, 10), (3, 30)],
        ))
        .unwrap();
        db.add(Relation::from_pairs(
            "R2",
            vec![(5, 10), (5, 20), (6, 30), (7, 40)],
        ))
        .unwrap();
        db
    }

    #[test]
    fn star_bbf_matches_oracle() {
        // S_2^{bbf}(x1, x2, z) = R1(x1, z), R2(x2, z) — the set-intersection
        // view of Example 7 / §3.1.
        let v = parse_adorned("Q(x1, x2, z) :- R1(x1, z), R2(x2, z)", "bbf").unwrap();
        let db = star_db();
        let s = Theorem2Structure::build_constant_delay(&v, &db).unwrap();
        let keys = (0..5u64).flat_map(|x1| (4..9u64).map(move |x2| vec![x1, x2]));
        assert_streams_naive(&s, &v, &db, keys);
    }

    #[test]
    fn full_enumeration_prop2() {
        // Acyclic path query, full enumeration: linear-space d-rep.
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (4, 5)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 7), (3, 8), (5, 9)]))
            .unwrap();
        let v = parse_adorned("Q(x, y, z) :- R(x, y), S(y, z)", "fff").unwrap();
        let s = Theorem2Structure::build_constant_delay(&v, &db).unwrap();
        assert_streams_naive(&s, &v, &db, [vec![]]);
        assert!(s.stats().materialized_tuples <= db.size());
    }

    #[test]
    fn semijoin_removes_dangling_tuples() {
        // R(x,y) tuples whose y never joins S must be filtered by the
        // bottom-up pass; delay stays constant because no bag row is dead.
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (1, 99), (2, 3)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 7), (3, 8)]))
            .unwrap();
        let v = parse_adorned("Q(x, y, z) :- R(x, y), S(y, z)", "bff").unwrap();
        // Manual decomposition: root {x} → {x,y} → {y,z}.
        let td = TreeDecomposition::new(
            vec![vs(&[0]), vs(&[0, 1]), vs(&[1, 2])],
            vec![None, Some(0), Some(1)],
        )
        .unwrap();
        let s = Theorem2Structure::build(&v, &db, &td, &[0.0; 3]).unwrap();
        // y = 99 must not survive in the {x,y} bag.
        assert_eq!(s.bag_reports()[0].tuples_or_entries, 2);
        assert_streams_naive(&s, &v, &db, (0..4u64).map(|x| vec![x]));
    }

    /// Prop. 1 is the root bag alone: an all-bound request is in the view
    /// iff every atom's projection of it is in its relation. Rows: one
    /// atom over an explicit root-only decomposition; a 2-path and a
    /// triangle over one relation used three times, each through the
    /// factorized recipe (the search returns the root bag for them).
    #[test]
    fn boolean_view_checks_root_relations() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
        let v = parse_adorned("Q(x, y) :- R(x, y)", "bb").unwrap();
        let td = TreeDecomposition::new(vec![vs(&[0, 1])], vec![None]).unwrap();
        let s = Theorem2Structure::build(&v, &db, &td, &[0.0]).unwrap();
        assert_streams_naive(&s, &v, &db, [vec![1, 2], vec![2, 1]]);
        let got = answers(&s, &[1, 2]);
        assert_eq!(got, vec![Vec::<Value>::new()]);
        // The check shares the database's relation; it is not a copy.
        assert!(Arc::ptr_eq(
            &s.root_checks[0].relation,
            &db.get_arc("R").unwrap()
        ));
        assert!(s.exists(&[1]).is_err(), "access arity is validated");

        // Membership: (x, y, z) is in the 2-path iff R(x, y) and S(y, z).
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 3), (3, 4)]))
            .unwrap();
        let v = parse_adorned("Q(x, y, z) :- R(x, y), S(y, z)", "bbb").unwrap();
        let s = Theorem2Structure::build_constant_delay(&v, &db).unwrap();
        assert_eq!((s.stats().bags, s.root_checks.len()), (0, 2));
        let keys = [vec![1, 2, 3], vec![2, 3, 4], vec![1, 2, 4], vec![9, 9, 9]];
        assert_streams_naive(&s, &v, &db, keys);
        let mut block = cqc_common::AnswerBlock::new();
        let mut it = s.enumerator();
        it.answer_into(&[1, 2, 3], &mut block).unwrap();
        it.answer_into(&[1, 2, 4], &mut block).unwrap();
        assert_eq!(block.to_tuples(), vec![Vec::<Value>::new()]);

        // The self-join ∆^bbb: each atom probes `R` at its own positions.
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 1)]))
            .unwrap();
        let v = parse_adorned("Q(x, y, z) :- R(x, y), R(y, z), R(z, x)", "bbb").unwrap();
        let s = Theorem2Structure::build_constant_delay(&v, &db).unwrap();
        assert_eq!(s.root_checks.len(), 3);
        assert!(s.exists(&[1, 2, 3]).unwrap());
        assert!(!s.exists(&[2, 1, 3]).unwrap());
        assert_streams_naive(&s, &v, &db, [vec![1, 2, 3], vec![2, 3, 1], vec![2, 1, 3]]);
    }

    #[test]
    fn triangle_with_one_bag() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (1, 3)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 3), (3, 1)]))
            .unwrap();
        db.add(Relation::from_pairs("T", vec![(3, 1), (1, 2)]))
            .unwrap();
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "fff").unwrap();
        let s = Theorem2Structure::build_constant_delay(&v, &db).unwrap();
        assert_eq!(s.stats().bags, 1);
        assert_streams_naive(&s, &v, &db, [vec![]]);
    }

    #[test]
    fn multi_branch_cartesian_enumeration() {
        // Root {x} with two independent children {x,y} and {x,z}: the
        // answer is a cartesian product across branches.
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 10), (1, 11), (2, 20)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(1, 77), (1, 78), (2, 99)]))
            .unwrap();
        let v = parse_adorned("Q(x, y, z) :- R(x, y), S(x, z)", "bff").unwrap();
        let td = TreeDecomposition::new(
            vec![vs(&[0]), vs(&[0, 1]), vs(&[0, 2])],
            vec![None, Some(0), Some(0)],
        )
        .unwrap();
        let s = Theorem2Structure::build(&v, &db, &td, &[0.0; 3]).unwrap();
        let got = answers(&s, &[1]);
        assert_eq!(
            got,
            vec![vec![10, 77], vec![10, 78], vec![11, 77], vec![11, 78]]
        );
        assert_streams_naive(&s, &v, &db, (1..4u64).map(|x| vec![x]));
    }

    /// A star with the centre bound where a *later* root child is empty
    /// for the key: Algorithm 5 backtracks from that bag's first open to
    /// its tree parent — the root — and the request ends there, however
    /// many rows the earlier branch holds (a predecessor backtrack would
    /// re-open the empty bag once per such row; same answers, more work).
    /// A bag joins the projections of every *incident* relation, so the
    /// emptiness has to come from one the earlier bag does not touch: the
    /// second ray carries a tail `R3(z, w)` that `z = 7` never joins.
    #[test]
    fn star_with_an_empty_later_branch_ends_at_its_first_open() {
        let mut db = Database::new();
        let r1 = (0..50).map(|y| (1, y)).chain([(2, 5)]);
        db.add(Relation::from_pairs("R1", r1)).unwrap();
        db.add(Relation::from_pairs("R2", vec![(1, 7), (2, 8)]))
            .unwrap();
        db.add(Relation::from_pairs("R3", vec![(8, 3)])).unwrap();
        let v = parse_adorned("Q(x, y, z, w) :- R1(x, y), R2(x, z), R3(z, w)", "bfff").unwrap();
        let td = TreeDecomposition::new(
            vec![vs(&[0]), vs(&[0, 1]), vs(&[0, 2]), vs(&[2, 3])],
            vec![None, Some(0), Some(0), Some(2)],
        )
        .unwrap();
        let s = Theorem2Structure::build(&v, &db, &td, &[0.0; 4]).unwrap();
        // Root children are not reduced against each other: the first
        // branch keeps its 50 rows for x = 1, the second has none.
        let kept: Vec<usize> = s
            .bag_reports()
            .iter()
            .map(|r| r.tuples_or_entries)
            .collect();
        assert_eq!(kept, [51, 1, 1]);
        let mut it = s.enumerator();
        it.reset(&[1]).unwrap();
        assert!(!it.advance());
        assert_eq!(it.cursors[0].mat, (0, 50), "the first branch opened once");
        assert!(it.done && !it.cursors[1].live);
        assert_streams_naive(&s, &v, &db, (0..4u64).map(|x| vec![x]));

        let cv = crate::CompressedView::build(&v, &db, crate::Strategy::Factorized).unwrap();
        assert!(matches!(cv, crate::CompressedView::Decomposed(_)));
        assert!(!cv.exists(&[1]).unwrap());
        let mut block = cqc_common::AnswerBlock::new();
        cv.answer_into(&[1], &mut block).unwrap();
        assert!(block.is_empty());
    }

    /// A materialized bag's bytes depend only on its surviving rows, so a
    /// maintained d-representation — bags re-derived where a delta
    /// touched them, cloned where it did not — is a rebuild to the byte,
    /// bag by bag, across a mixed insert/delete history. (At b7efa13 a
    /// cloned bag dropped the doubling slack its rebuilt twin keeps.)
    #[test]
    fn maintained_constant_delay_bytes_equal_a_rebuild() {
        let view = cqc_workload::queries::path(3, "bfff").unwrap();
        let mut rng = cqc_workload::rng(25);
        let mut db = Database::new();
        for name in ["R1", "R2", "R3"] {
            db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 300, 30))
                .unwrap();
        }
        let build = |db: &Database| Theorem2Structure::build_constant_delay(&view, db).unwrap();
        let layout = |s: &Theorem2Structure| -> Vec<(usize, usize, usize, usize)> {
            let bag = |r: &BagReport| (r.tuples_or_entries, r.keys, r.domain_values, r.heap_bytes);
            s.bag_reports().iter().map(bag).collect()
        };
        let mut s = build(&db);
        let bags = s.stats().bags;
        assert!(bags >= 3, "{:?}", s.bag_reports());
        let (mut cloned, mut removed) = (0, 0);
        let histories: [&[&str]; 4] = [&["R1"], &["R1", "R2"], &["R1", "R2", "R3"], &["R3"]];
        for (step, touched) in histories.iter().cycle().take(8).enumerate() {
            let delta = cqc_workload::mixed_delta(&mut rng, &db, touched, 4, 3);
            removed += delta.remove_groups().map(|(_, t)| t.len()).sum::<usize>();
            db.apply(&delta).unwrap();
            let (maintained, rebuilt_bags) =
                s.maintained(&db, &delta).unwrap().expect("natural atoms");
            cloned += bags - rebuilt_bags;
            let rebuilt = build(&db);
            assert_eq!(layout(&maintained), layout(&rebuilt), "step {step}");
            assert_eq!(maintained.heap_bytes(), rebuilt.heap_bytes(), "step {step}");
            assert_streams_naive(&maintained, &view, &db, (0..30u64).map(|x| vec![x]));
            s = maintained;
        }
        assert!(cloned > 0, "some delta must leave a bag untouched");
        assert!(removed > 0, "the history must delete something");
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
    /// those bags' oracles and still answers the naive join for every
    /// bound valuation. That bag keeps no dictionary entry, so the delta
    /// history runs on the 4-path's delay-tuned bag over a materialized
    /// child, whose pairs are heavy by work: it keeps entries, its bits
    /// flip both ways across the history, and the maintained structure
    /// walks as a rebuild and answers the naive join after every delta.
    #[test]
    fn tradeoff_bags_keep_no_oracle_and_stay_exact_across_deltas() {
        // `heap_bytes()` of this instance at 9234dc4, where every tradeoff
        // bag kept its `CostEstimator` (measured by this test's own build
        // line in a checkout of that commit).
        const PARENT_HEAP_BYTES: usize = 14_484;
        // The nodes its one tradeoff bag's tree build numbers, all stored
        // at that commit; the stored tree keeps those Algorithm 2 can
        // reach (17 while every Def.-3-heavy pair was stored, 1 now), which
        // `heap_bytes()` below counts.
        const BUILT_TREE_NODES: usize = 100;
        // The entries that bag's dictionary held while every Def.-3-heavy
        // pair reachable through a `1` was stored (at 9efacb2). Each one's
        // `⊥` run now finds its answers within 16 · τ units, so it keeps
        // none; the fixed-width layout below is priced at those entries.
        const DEF3_DICT_ENTRIES: usize = 282;

        let view = cqc_workload::queries::path(3, "bffb").unwrap();
        let names = ["R1", "R2", "R3"];
        let mut rng = cqc_workload::rng(21);
        let mut db = Database::new();
        for name in names {
            db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 90, 10))
                .unwrap();
        }
        let s = build_budgeted(&view, &db, 1.5);
        assert_eq!(s.stats().tradeoff_bags, 1, "{:?}", s.bag_reports());
        // What the bags' oracles held at the parent: per atom two count
        // indexes over the relation its trie sorts (the same rows under
        // other column orders) and under 128 B of positions and header.
        let tries: Vec<&Arc<SortedIndex>> = s
            .tradeoff_structures()
            .flat_map(Theorem1Structure::base_indexes)
            .collect();
        // That commit stored every index value as a `u64`: an index's heap
        // was its column order, 8 B per value and a `Vec` header per
        // column — priced from row counts, not from today's packed bytes.
        let u64_index = |ix: &SortedIndex| 8 * ix.arity() * (ix.len() + 1) + 24 * ix.arity();
        let oracle_indexes: usize = tries.iter().map(|ix| 2 * u64_index(ix)).sum();
        // What that commit's fixed-width columns held, beside what today's
        // packed ones hold, from each bag's counts: a tree node 4µ + 4 B
        // (every node the build numbers), a dictionary 8 B per root
        // candidate value and 4 B per entry id and per node offset (per
        // built node too), each trie as above, the grid 8 B per domain
        // value plus a `Vec` header per domain, a materialized bag
        // `(8·bw + 4)·keys + 4 + 4·fw·rows + 8·Σ distinct`.
        let (fixed, packed): (usize, usize) = s
            .bags
            .iter()
            .map(|b| match &b.kind {
                BagKind::Tradeoff(t1) => {
                    let st = t1.stats();
                    let (mu, nb) = (t1.view().mu(), t1.view().bound_head().len());
                    let tree = (4 * mu + 4) * BUILT_TREE_NODES + 8 * mu;
                    let dict = 8 * nb * st.dict_candidates
                        + 4 * (BUILT_TREE_NODES + 1)
                        + 4 * DEF3_DICT_ENTRIES
                        + 8 * DEF3_DICT_ENTRIES.div_ceil(64);
                    let tries = t1.base_indexes().map(|ix| (u64_index(ix), ix.heap_bytes()));
                    let grid = t1.domains().iter().map(|d| {
                        let header = std::mem::size_of::<cqc_storage::Domain>();
                        (8 * d.len() + 24, d.heap_bytes() + header)
                    });
                    tries.chain(grid).fold(
                        (tree + dict, st.tree_bytes + st.dict_bytes),
                        |(f, p), (fixed, packed)| (f + fixed, p + packed),
                    )
                }
                BagKind::Materialized(m) => {
                    let (bw, fw) = (b.bound_vars.len(), b.free_vars.len());
                    let fixed =
                        (8 * bw + 4) * m.num_keys() + 4 + 4 * fw * m.len() + 8 * m.domain_values();
                    (fixed, m.heap_bytes())
                }
            })
            .fold((0, 0), |(f, p), (fixed, packed)| (f + fixed, p + packed));
        let unpacked = fixed - packed;
        let now = s.heap_bytes();
        println!(
            "3-path decomposed:1.5 heap_bytes: {PARENT_HEAP_BYTES} at the parent, {now} now \
             ({oracle_indexes} B of bag-oracle indexes, {unpacked} B of unpacked columns)"
        );
        let saved = PARENT_HEAP_BYTES - now - unpacked;
        assert!(
            (oracle_indexes..=oracle_indexes + 128 * tries.len()).contains(&saved),
            "saved {saved} B, the bag oracles' indexes were {oracle_indexes} B"
        );
        for a in 0..10u64 {
            for b in 0..10u64 {
                let expect = evaluate_view(&view, &db, &[a, b]).unwrap();
                assert_eq!(sorted(answers(&s, &[a, b])), expect, "({a}, {b})");
            }
        }

        let view = cqc_workload::queries::path(4, "bfffb").unwrap();
        let names = ["R1", "R2", "R3", "R4"];
        let mut rng = cqc_workload::rng(21);
        let mut db = Database::new();
        for name in names {
            db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 100, 40))
                .unwrap();
        }
        let (td, delays) = (path4_paper_td(), [0.0, 0.3, 0.0]);
        let build = |db: &Database| Theorem2Structure::build(&view, db, &td, &delays).unwrap();
        let mut s = build(&db);
        assert_eq!(s.stats().tradeoff_bags, 1, "{:?}", s.bag_reports());
        assert!(s.stats().dict_entries > 0, "{:?}", s.bag_reports());
        let mut before = bits_by_pair(&s);
        let (mut set, mut cleared, mut removed) = (0, 0, 0);
        for _ in 0..6 {
            let delta = cqc_workload::mixed_delta(&mut rng, &db, &names, 10, 10);
            removed += delta.remove_groups().map(|(_, t)| t.len()).sum::<usize>();
            db.apply(&delta).unwrap();
            let (maintained, _) = s.maintained(&db, &delta).unwrap().expect("natural atoms");
            let rebuilt = build(&db);
            let walk = |s: &Theorem2Structure| -> Vec<u64> {
                s.tradeoff_structures()
                    .map(crate::theorem1::tests::walk_fnv)
                    .collect()
            };
            assert_eq!(walk(&maintained), walk(&rebuilt));
            for a in 0..40u64 {
                for b in 0..40u64 {
                    let expect = evaluate_view(&view, &db, &[a, b]).unwrap();
                    assert_eq!(sorted(answers(&maintained, &[a, b])), expect, "({a}, {b})");
                }
            }
            let after = bits_by_pair(&maintained);
            for (pair, bit) in &after {
                match (before.get(pair), bit) {
                    (Some(false), true) => set += 1,
                    (Some(true), false) => cleared += 1,
                    _ => {}
                }
            }
            before = after;
            s = maintained;
        }
        assert!(removed > 0, "the history must delete something");
        assert!(set > 0 && cleared > 0, "{set} bits set, {cleared} cleared");
    }

    /// Every stored pair of the structure's delay-tuned bags, keyed by its
    /// node's interval in values (ranks move with a delta) and its `v_b`,
    /// with its bit.
    fn bits_by_pair(s: &Theorem2Structure) -> std::collections::BTreeMap<Vec<Value>, bool> {
        let mut out = std::collections::BTreeMap::new();
        for t1 in s.tradeoff_structures() {
            let (Some(tree), dict, doms) = (t1.tree(), t1.dictionary(), t1.domains()) else {
                continue;
            };
            let mut vb = Vec::new();
            dict.walk(tree, |step| {
                let FInterval { lo, hi } = step.interval;
                let ends = lo.iter().zip(doms).chain(hi.iter().zip(doms));
                let interval: Vec<Value> = ends.map(|(&r, d)| d.value(r)).collect();
                for e in step.entries {
                    dict.candidate_into(e.cand, &mut vb);
                    let pair = interval.iter().chain(&vb).copied().collect();
                    out.insert(pair, dict.bit(e.entry));
                }
                true
            });
        }
        out
    }

    /// The walk of the 4-path's delay-tuned bag, reduced against its
    /// materialized child (see `walk_fnv`): what a walk sees, no node id in
    /// it. The pin is the walk of the bag that stored every Def.-3-heavy
    /// pair reachable through a `1` (97 nodes, 1 942 entries), its bits
    /// cleared where no answer extends into the child, with each pair
    /// whose `⊥` run finds an answer that extends within 16 · τ units
    /// (the child probes counted), and what lies below it or below a `0`,
    /// filtered out: 7 nodes, 180 entries.
    #[test]
    fn delay_tuned_bag_walk_is_pinned() {
        let mut rng = cqc_workload::rng(21);
        let mut db = Database::new();
        for name in ["R1", "R2", "R3", "R4"] {
            db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 100, 40))
                .unwrap();
        }
        let view = cqc_workload::queries::path(4, "bfffb").unwrap();
        let s = Theorem2Structure::build(&view, &db, &path4_paper_td(), &[0.0, 0.3, 0.0]).unwrap();
        let walks: Vec<(usize, u64)> = s
            .tradeoff_structures()
            .map(|t1| (t1.stats().tree_nodes, crate::theorem1::tests::walk_fnv(t1)))
            .collect();
        assert_eq!(walks, [(7, 1_381_858_699_404_166_946)]);
    }
}
