//! Shared join setup for adorned views.
//!
//! A [`ViewPlan`] fixes the global variable order of an adorned view —
//! bound head variables first (in head order), then free head variables in
//! the enumeration order of §3.1 — and builds one trie-aligned
//! [`SortedIndex`] per atom. Every structure that evaluates restricted
//! sub-instances of the view (the Theorem 1/2 structures in `cqc-core`)
//! instantiates [`LeapfrogJoin`]s from the same plan.

use crate::leapfrog::{trie_order_for_atom, AtomInput, LeapfrogJoin, LevelConstraint};
use cqc_common::error::Result;
use cqc_common::heap::HeapSize;
use cqc_query::{AdornedView, Var};
use cqc_storage::{Database, Delta, IndexPool, SortedIndex};
use std::sync::Arc;

/// Join infrastructure for one adorned view: variable order plus per-atom
/// trie indexes.
///
/// Indexes are `Arc`-shared: a plan built through an [`IndexPool`] reuses
/// any identical `(relation, column-order)` index already resident there —
/// the cost oracle's, another atom's, another view's — instead of
/// re-sorting it.
#[derive(Debug, Clone)]
pub struct ViewPlan {
    /// Global variable order: bound head variables, then free head variables.
    pub order: Vec<Var>,
    /// `level_of[v.index()]` = the global level of variable `v`.
    pub level_of: Vec<usize>,
    /// Number of bound variables (they occupy levels `0..num_bound`).
    pub num_bound: usize,
    indexes: Vec<Arc<SortedIndex>>,
    atom_levels: Vec<Vec<usize>>,
}

impl ViewPlan {
    /// Builds the plan: validates the view is a natural join over `db` and
    /// constructs the trie indexes through a private [`IndexPool`] (atoms
    /// over the same relation and order still share).
    ///
    /// # Errors
    ///
    /// Fails on non-natural-join views and schema mismatches.
    pub fn build(view: &AdornedView, db: &Database) -> Result<ViewPlan> {
        ViewPlan::build_pooled(view, db, &IndexPool::new())
    }

    /// [`ViewPlan::build`] drawing every trie index from `pool`, so
    /// indexes shared with its other consumers (the cost oracle's access
    /// indexes use the identical column order; so does any other view with
    /// the same adornment of the atom) are built exactly once.
    ///
    /// # Errors
    ///
    /// Fails on non-natural-join views and schema mismatches.
    pub fn build_pooled(view: &AdornedView, db: &Database, pool: &IndexPool) -> Result<ViewPlan> {
        let query = view.query();
        query.require_natural_join()?;
        query.check_schema(db)?;

        let mut order = view.bound_head();
        let num_bound = order.len();
        order.extend(view.free_head());

        let mut level_of = vec![usize::MAX; query.num_vars()];
        for (l, v) in order.iter().enumerate() {
            level_of[v.index()] = l;
        }

        let mut indexes = Vec::with_capacity(query.atoms.len());
        let mut atom_levels = Vec::with_capacity(query.atoms.len());
        for atom in &query.atoms {
            let var_levels: Vec<usize> = atom.vars().map(|v| level_of[v.index()]).collect();
            let (cols, levels) = trie_order_for_atom(&var_levels);
            indexes.push(pool.get_or_build(db, &atom.relation, &cols)?);
            atom_levels.push(levels);
        }

        Ok(ViewPlan {
            order,
            level_of,
            num_bound,
            indexes,
            atom_levels,
        })
    }

    /// The plan for the post-delta database `db`: every trie index is
    /// traded in at `pool` for its post-delta successor
    /// ([`IndexPool::maintained`] — the engine's store already holds it,
    /// merged once for all holders; a private pool merges this plan's own
    /// index), so nothing is re-sorted and a maintained plan shares
    /// exactly what a rebuilt one would.
    ///
    /// Returns `Ok(None)` when an index cannot be reconciled with the
    /// post-delta relation (size or arity disagreement) — fall back to
    /// [`ViewPlan::build_pooled`].
    ///
    /// # Errors
    ///
    /// Propagates schema errors (a view relation missing from `db`).
    pub fn maintained(
        &self,
        view: &AdornedView,
        db: &Database,
        delta: &Delta,
        pool: &IndexPool,
    ) -> Result<Option<ViewPlan>> {
        let query = view.query();
        if query.atoms.len() != self.indexes.len() {
            return Ok(None);
        }
        let mut indexes = Vec::with_capacity(self.indexes.len());
        for (atom, old) in query.atoms.iter().zip(&self.indexes) {
            let Some(index) = pool.maintained(db, &atom.relation, old, delta)? else {
                return Ok(None);
            };
            indexes.push(index);
        }
        Ok(Some(ViewPlan {
            order: self.order.clone(),
            level_of: self.level_of.clone(),
            num_bound: self.num_bound,
            indexes,
            atom_levels: self.atom_levels.clone(),
        }))
    }

    /// Total number of join levels (= head arity for natural joins).
    pub fn num_levels(&self) -> usize {
        self.order.len()
    }

    /// Number of free levels `µ`.
    pub fn num_free(&self) -> usize {
        self.order.len() - self.num_bound
    }

    /// The trie index of atom `i`.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, i: usize) -> &SortedIndex {
        &self.indexes[i]
    }

    /// The shared handles of all trie indexes, in atom order.
    pub fn indexes(&self) -> &[Arc<SortedIndex>] {
        &self.indexes
    }

    /// The global levels of atom `i`'s trie depths.
    pub fn atom_levels(&self, i: usize) -> &[usize] {
        &self.atom_levels[i]
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.indexes.len()
    }

    /// Instantiates a join over all atoms with the given per-level
    /// constraints.
    pub fn join(&self, constraints: Vec<LevelConstraint>) -> LeapfrogJoin<'_> {
        self.join_subset(&(0..self.num_atoms()).collect::<Vec<_>>(), constraints)
    }

    /// Instantiates a join over a subset of atoms. Levels touched by no
    /// selected atom must be `Fixed`.
    pub fn join_subset(
        &self,
        atom_ids: &[usize],
        constraints: Vec<LevelConstraint>,
    ) -> LeapfrogJoin<'_> {
        let atoms = atom_ids
            .iter()
            .map(|&i| AtomInput::new(&self.indexes[i], self.atom_levels[i].clone()))
            .collect();
        LeapfrogJoin::new(atoms, self.num_levels(), constraints)
    }
}

impl ViewPlan {
    /// [`HeapSize::heap_bytes`] over the trie indexes `count_index`
    /// accepts (it sees every holder's `Arc`, in atom order). Indexes are
    /// `Arc`-shared between atoms (and with other views); a caller that
    /// accepts each allocation once measures resident bytes.
    pub fn heap_bytes_counting(
        &self,
        mut count_index: impl FnMut(&Arc<SortedIndex>) -> bool,
    ) -> usize {
        self.order.heap_bytes()
            + self.level_of.heap_bytes()
            + self
                .indexes
                .iter()
                .filter(|i| count_index(i))
                .map(|i| i.heap_bytes() + std::mem::size_of::<SortedIndex>())
                .sum::<usize>()
            + self
                .atom_levels
                .iter()
                .map(|l| l.heap_bytes() + std::mem::size_of::<Vec<usize>>())
                .sum::<usize>()
    }
}

impl HeapSize for ViewPlan {
    /// Every holder counts its indexes, shared or not.
    fn heap_bytes(&self) -> usize {
        self.heap_bytes_counting(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_query::parser::parse_adorned;
    use cqc_storage::Relation;

    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs(
            "R",
            vec![(1, 2), (2, 3), (1, 3), (3, 1)],
        ))
        .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 3), (3, 1), (3, 2)]))
            .unwrap();
        db.add(Relation::from_pairs("T", vec![(3, 1), (1, 2), (2, 3)]))
            .unwrap();
        db
    }

    #[test]
    fn order_is_bound_then_free() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        let plan = ViewPlan::build(&v, &triangle_db()).unwrap();
        // Bound: x, z; free: y.
        assert_eq!(plan.num_bound, 2);
        assert_eq!(plan.num_free(), 1);
        let names: Vec<&str> = plan.order.iter().map(|w| v.query().var_name(*w)).collect();
        assert_eq!(names, vec!["x", "z", "y"]);
    }

    #[test]
    fn join_with_bound_values() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bbf").unwrap();
        let plan = ViewPlan::build(&v, &triangle_db()).unwrap();
        let cons = vec![
            LevelConstraint::Fixed(1),
            LevelConstraint::Fixed(2),
            LevelConstraint::Free,
        ];
        let mut j = plan.join(cons);
        // x=1, y=2: z with S(2,z) ∧ T(z,1) ∧ R(1,2): z=3.
        let mut out = Vec::new();
        while let Some(t) = j.next() {
            out.push(t.to_vec());
        }
        assert_eq!(out, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn projection_rejected() {
        let v = parse_adorned("Q(x,y) :- R(x,y), S(y,z), T(z,x)", "bf").unwrap();
        assert!(ViewPlan::build(&v, &triangle_db()).is_err());
    }

    #[test]
    fn subset_join_requires_fixed_elsewhere() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "fff").unwrap();
        let plan = ViewPlan::build(&v, &triangle_db()).unwrap();
        // Join only R(x,y): level z must be fixed.
        let cons = vec![
            LevelConstraint::Free,
            LevelConstraint::Free,
            LevelConstraint::Fixed(3),
        ];
        let mut j = plan.join_subset(&[0], cons);
        let mut out = Vec::new();
        while let Some(t) = j.next() {
            out.push(t.to_vec());
        }
        assert_eq!(
            out,
            vec![vec![1, 2, 3], vec![1, 3, 3], vec![2, 3, 3], vec![3, 1, 3]]
        );
    }
}
